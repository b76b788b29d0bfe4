// tape_detail.hpp — word-span primitives shared by the tape compiler
// (tape.cpp), the code emitter (codegen_emit.cpp) and the tape engine's
// interpreted evaluators (codegen.cpp), and the class-aware lane access of
// the byte arena.  All functions mirror Bits semantics exactly; the engine
// is differentially tested against the interpreter, so any drift here is
// caught by tests/rtl/{tape,native,native_class}_test.cpp.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

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

// ---- width-class lane access (the byte arena, tape.hpp) --------------------
// A lane word of class c holds 8 << c bits in 1 << c bytes; lane l of a slot
// with `words` words a lane starts (l * words) << c bytes past its offset.

static_assert(std::endian::native == std::endian::little,
              "the masked lane loads read the low bytes of a word");

/// The bits a lane word of class c holds.
inline std::uint64_t class_mask(unsigned c) {
  return ~0ull >> (64 - (8u << c));
}

/// Lane l's word w of the class-c slot at byte offset `off` of `base`: one
/// unaligned 8-byte load masked to the class, so one branch-free body
/// serves every class (buffers keep kArenaPad bytes past their last slot).
inline std::uint64_t load_word(const unsigned char* base, std::uint32_t off,
                               unsigned c, unsigned words, unsigned l,
                               unsigned w = 0) {
  std::uint64_t v;
  std::memcpy(&v, base + off + ((std::size_t{l} * words) << c) + w * 8u, 8);
  return v & class_mask(c);
}

template <class T>
inline bool put_lane(unsigned char* p, std::uint64_t v) {
  T old;
  std::memcpy(&old, p, sizeof old);
  const T nv = static_cast<T>(v);
  std::memcpy(p, &nv, sizeof nv);
  return old != nv;
}

/// Stores `v` as lane l's word w of the class-c slot at `off`; true when it
/// changed.
inline bool store_word(unsigned char* base, std::uint32_t off, unsigned c,
                       unsigned words, unsigned l, std::uint64_t v,
                       unsigned w = 0) {
  unsigned char* const p =
      base + off + ((std::size_t{l} * words) << c) + w * 8u;
  switch (c) {
    case 0: return put_lane<std::uint8_t>(p, v);
    case 1: return put_lane<std::uint16_t>(p, v);
    case 2: return put_lane<std::uint32_t>(p, v);
    default: return put_lane<std::uint64_t>(p, v);
  }
}

/// `f.template operator()<T>()` with T the lane word type of class c.
template <class F>
decltype(auto) with_class(unsigned c, F&& f) {
  switch (c) {
    case 0: return f.template operator()<std::uint8_t>();
    case 1: return f.template operator()<std::uint16_t>();
    case 2: return f.template operator()<std::uint32_t>();
    default: return f.template operator()<std::uint64_t>();
  }
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
