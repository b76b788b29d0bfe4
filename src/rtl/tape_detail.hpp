// tape_detail.hpp — word-span primitives shared by the tape compiler
// (tape.cpp), the code emitter (codegen_emit.cpp) and the tape engine's
// interpreted evaluators (codegen.cpp).  All functions mirror Bits semantics
// exactly; the engine is differentially tested against the interpreter, so
// any drift here is caught by tests/rtl/{tape,native}_test.cpp.

#pragma once

#include <algorithm>
#include <cstdint>

#include "sysc/bits.hpp"

namespace osss::rtl::tape::detail {

inline unsigned words_of(unsigned width) { return (width + 63) / 64; }

/// Mask covering the top storage word of a `width`-bit value.
inline std::uint64_t top_mask(unsigned width) {
  const unsigned rem = width % 64;
  return rem == 0 ? ~0ull : ((std::uint64_t{1} << rem) - 1);
}

/// Mask covering all of a `width <= 64` bit value.
inline std::uint64_t mask64(unsigned width) {
  return width >= 64 ? ~0ull : ((std::uint64_t{1} << width) - 1);
}

/// A variable shift's amount from its `words` lane words: the low word, or
/// ~0 (past every width) when a higher word is nonzero — rtl::shift_count's
/// whole-amount rule.
inline std::uint64_t shift_amount(const std::uint64_t* amt, unsigned words) {
  for (unsigned w = 1; w < words; ++w)
    if (amt[w] != 0) return ~0ull;
  return amt[0];
}

inline bool store1(std::uint64_t* d, std::uint64_t nv) {
  const bool changed = *d != nv;
  *d = nv;
  return changed;
}

inline bool storeN(std::uint64_t* d, const std::uint64_t* s, unsigned words) {
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < words; ++w) {
    diff |= d[w] ^ s[w];
    d[w] = s[w];
  }
  return diff != 0;
}

/// s = a << amt over n words (amt < n*64; caller handles >= width).
inline void span_shl(std::uint64_t* s, const std::uint64_t* a, unsigned n,
                     unsigned amt) {
  const unsigned ws = amt / 64, bs = amt % 64;
  for (unsigned w = n; w-- > 0;) {
    std::uint64_t v = 0;
    if (w >= ws) {
      v = a[w - ws] << bs;
      if (bs != 0 && w > ws) v |= a[w - ws - 1] >> (64 - bs);
    }
    s[w] = v;
  }
}

/// s = a >> amt over n words (amt < n*64).
inline void span_lshr(std::uint64_t* s, const std::uint64_t* a, unsigned n,
                      unsigned amt) {
  const unsigned ws = amt / 64, bs = amt % 64;
  for (unsigned w = 0; w < n; ++w) {
    std::uint64_t v = 0;
    if (w + ws < n) {
      v = a[w + ws] >> bs;
      if (bs != 0 && w + ws + 1 < n) v |= a[w + ws + 1] << (64 - bs);
    }
    s[w] = v;
  }
}

/// Set bits [from, to) of a word span (from < to).
inline void span_fill(std::uint64_t* s, unsigned from, unsigned to) {
  for (unsigned w = from / 64; w <= (to - 1) / 64; ++w) {
    const unsigned lo = w * 64;
    std::uint64_t m = ~0ull;
    if (from > lo) m &= ~0ull << (from - lo);
    if (to < lo + 64) m &= ~0ull >> (lo + 64 - to);
    s[w] |= m;
  }
}

inline Bits bits_from_words(const std::uint64_t* s, unsigned width) {
  Bits out(width);
  for (unsigned w = 0; w < words_of(width); ++w) {
    const unsigned lo = w * 64;
    out.set_range(lo, Bits(std::min(64u, width - lo), s[w]));
  }
  return out;
}

}  // namespace osss::rtl::tape::detail
