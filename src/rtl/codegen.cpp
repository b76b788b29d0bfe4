// codegen.cpp — NativeEngine, the one tape runtime: runtime compile +
// dlopen of the generated tape code, the threaded handlers, the per-lane
// opcode switch, port I/O and the register/memory commit.
//
// The threaded handlers (Exec::run, bound per instruction by Exec::pick)
// each run their lane loop internally; the generated code calls them back
// (run_instr) for every instruction wider than one word.  The lane switch
// (exec_one, kTape) evaluates one lane per call and reads the opcode from
// the tape each time: it spells out the single-word opcodes and runs the
// multi-word and width-generic ones through the handlers' per-lane code
// (Exec::run_wide), the one multi-word implementation next to the oracle.
// R7 measures the generated code against this switch, so it keeps the
// interpreted tape's per-lane dispatch.  Both are differentially tested
// against the interpreter.

#include "rtl/codegen.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "jit/jit.hpp"
#include "par/batch.hpp"
#include "rtl/tape_detail.hpp"

namespace osss::rtl::tape {

using detail::bits_from_words;
using detail::mask64;
using detail::shift_amount;
using detail::span_fill;
using detail::span_lshr;
using detail::span_shl;
using detail::store1;
using detail::storeN;
using detail::top_mask;
using detail::words_of;

// --- threaded-code handlers ------------------------------------------------

struct NativeEngine::Exec {
  template <TOp OP>
  static bool run(NativeEngine& e, const Instr& ins) {
    std::uint64_t* const ar = e.rt_.arena();
    const unsigned lanes = e.prog_.lanes;

    if constexpr (OP == TOp::kAdd1 || OP == TOp::kSub1 || OP == TOp::kMul1 ||
                  OP == TOp::kAnd1 || OP == TOp::kOr1 || OP == TOp::kXor1) {
      const std::uint64_t* a = ar + ins.a;
      const std::uint64_t* b = ar + ins.b;
      std::uint64_t* d = ar + ins.dst;
      const std::uint64_t m = ins.mask;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        std::uint64_t nv;
        if constexpr (OP == TOp::kAdd1) nv = (a[l] + b[l]) & m;
        else if constexpr (OP == TOp::kSub1) nv = (a[l] - b[l]) & m;
        else if constexpr (OP == TOp::kMul1) nv = (a[l] * b[l]) & m;
        else if constexpr (OP == TOp::kAnd1) nv = a[l] & b[l];
        else if constexpr (OP == TOp::kOr1) nv = a[l] | b[l];
        else nv = a[l] ^ b[l];
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kNot1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t nv = ~a[l] & ins.mask;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kShlI1 || OP == TOp::kLshrI1 ||
                         OP == TOp::kSlice1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        std::uint64_t nv;
        if constexpr (OP == TOp::kShlI1) nv = (a[l] << ins.param) & ins.mask;
        else if constexpr (OP == TOp::kLshrI1) nv = a[l] >> ins.param;
        else nv = (a[l] >> ins.param) & ins.mask;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kAshrI1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      const unsigned w = ins.width;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t x = a[l];
        const bool sign = ((x >> (w - 1)) & 1u) != 0;
        std::uint64_t nv;
        if (ins.param >= w) {
          nv = sign ? ins.mask : 0;
        } else {
          nv = x >> ins.param;
          if (sign) nv |= ins.mask ^ (ins.mask >> ins.param);
        }
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kShlV1 || OP == TOp::kLshrV1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t amt =
            shift_amount(ar + ins.b + std::size_t{l} * ins.aw, ins.aw);
        std::uint64_t nv = 0;
        if (amt < ins.width) {
          if constexpr (OP == TOp::kShlV1) nv = (a[l] << amt) & ins.mask;
          else nv = a[l] >> amt;
        }
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kEq1 || OP == TOp::kNe1 ||
                         OP == TOp::kUlt1 || OP == TOp::kUle1) {
      const std::uint64_t* a = ar + ins.a;
      const std::uint64_t* b = ar + ins.b;
      std::uint64_t* d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        bool r;
        if constexpr (OP == TOp::kEq1) r = a[l] == b[l];
        else if constexpr (OP == TOp::kNe1) r = a[l] != b[l];
        else if constexpr (OP == TOp::kUlt1) r = a[l] < b[l];
        else r = a[l] <= b[l];
        const std::uint64_t nv = r ? 1u : 0u;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kSlt1 || OP == TOp::kSle1) {
      const std::uint64_t* a = ar + ins.a;
      const std::uint64_t* b = ar + ins.b;
      std::uint64_t* d = ar + ins.dst;
      const unsigned sh = 64 - ins.a_width;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const auto x = static_cast<std::int64_t>(a[l] << sh);
        const auto y = static_cast<std::int64_t>(b[l] << sh);
        const bool r = OP == TOp::kSlt1 ? x < y : x <= y;
        const std::uint64_t nv = r ? 1u : 0u;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kMux1) {
      const std::uint64_t* s = ar + ins.a;
      const std::uint64_t* b = ar + ins.b;
      const std::uint64_t* c = ar + ins.c;
      std::uint64_t* d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t nv = (s[l] & 1u) != 0 ? b[l] : c[l];
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kSExt1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      const std::uint64_t hi = ins.mask ^ mask64(ins.a_width);
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t x = a[l];
        const bool sign = ((x >> (ins.a_width - 1)) & 1u) != 0;
        const std::uint64_t nv = sign ? (x | hi) : x;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else if constexpr (OP == TOp::kRedOr1 || OP == TOp::kRedAnd1 ||
                         OP == TOp::kRedXor1) {
      const std::uint64_t* a = ar + ins.a;
      std::uint64_t* d = ar + ins.dst;
      const std::uint64_t full = mask64(ins.a_width);
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        std::uint64_t nv;
        if constexpr (OP == TOp::kRedOr1) nv = a[l] != 0 ? 1u : 0u;
        else if constexpr (OP == TOp::kRedAnd1) nv = a[l] == full ? 1u : 0u;
        else nv = std::popcount(a[l]) & 1u;
        ch |= nv ^ d[l];
        d[l] = nv;
      }
      return ch != 0;
    } else {
      // Multi-word and width-generic forms: per-lane scratch staging, same
      // flow as the interpreter.
      std::uint64_t* s = e.scratch_.data();
      bool changed = false;
      for (unsigned l = 0; l < lanes; ++l)
        changed |= run_wide<OP>(e, ins, l, s);
      return changed;
    }
  }

  template <TOp OP>
  static bool run_wide(NativeEngine& e, const Instr& ins, unsigned lane,
                       std::uint64_t* s) {
    std::uint64_t* const ar = e.rt_.arena();
    std::uint64_t* d = ar + ins.dst + std::size_t{lane} * ins.dw;

    if constexpr (OP == TOp::kCopyN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kAddN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t carry = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] + carry;
        const std::uint64_t c1 = t < carry ? 1u : 0u;
        s[w] = t + b[w];
        carry = c1 | (s[w] < b[w] ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kSubN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t borrow = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] - b[w];
        const std::uint64_t b1 = a[w] < b[w] ? 1u : 0u;
        s[w] = t - borrow;
        borrow = b1 | (t < borrow ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kMulN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      for (unsigned i = 0; i < ins.dw; ++i) {
        if (a[i] == 0) continue;
        std::uint64_t carry = 0;
        for (unsigned j = 0; i + j < ins.dw; ++j) {
          const unsigned __int128 acc =
              static_cast<unsigned __int128>(a[i]) * b[j] + s[i + j] + carry;
          s[i + j] = static_cast<std::uint64_t>(acc);
          carry = static_cast<std::uint64_t>(acc >> 64);
        }
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kAndN || OP == TOp::kOrN ||
                         OP == TOp::kXorN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      for (unsigned w = 0; w < ins.dw; ++w) {
        if constexpr (OP == TOp::kAndN) s[w] = a[w] & b[w];
        else if constexpr (OP == TOp::kOrN) s[w] = a[w] | b[w];
        else s[w] = a[w] ^ b[w];
      }
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kNotN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = ~a[w];
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kShlIN) {
      span_shl(s, ar + ins.a + std::size_t{lane} * ins.dw, ins.dw, ins.param);
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kLshrIN) {
      span_lshr(s, ar + ins.a + std::size_t{lane} * ins.dw, ins.dw,
                ins.param);
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kAshrIN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const unsigned w = ins.width;
      const bool sign = ((a[(w - 1) / 64] >> ((w - 1) % 64)) & 1u) != 0;
      if (ins.param >= w) {
        for (unsigned i = 0; i < ins.dw; ++i) s[i] = sign ? ~0ull : 0;
      } else {
        span_lshr(s, a, ins.dw, ins.param);
        if (sign && ins.param > 0) span_fill(s, w - ins.param, w);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kShlVN || OP == TOp::kLshrVN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t amt =
          shift_amount(ar + ins.b + std::size_t{lane} * ins.aw, ins.aw);
      if (amt >= ins.width) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      } else if (OP == TOp::kShlVN) {
        span_shl(s, a, ins.dw, static_cast<unsigned>(amt));
        s[ins.dw - 1] &= ins.mask;
      } else {
        span_lshr(s, a, ins.dw, static_cast<unsigned>(amt));
      }
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kEqN || OP == TOp::kNeN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      std::uint64_t diff = 0;
      for (unsigned w = 0; w < ins.aw; ++w) diff |= a[w] ^ b[w];
      const bool r = OP == TOp::kEqN ? diff == 0 : diff != 0;
      return store1(d, r ? 1u : 0u);
    } else if constexpr (OP == TOp::kUltN || OP == TOp::kUleN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return store1(d, a[w] < b[w] ? 1u : 0u);
      return store1(d, OP == TOp::kUleN ? 1u : 0u);
    } else if constexpr (OP == TOp::kSltN || OP == TOp::kSleN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      const bool sa = ((a[sw] >> sb) & 1u) != 0;
      const bool sbit = ((b[sw] >> sb) & 1u) != 0;
      if (sa != sbit) return store1(d, sa ? 1u : 0u);
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return store1(d, a[w] < b[w] ? 1u : 0u);
      return store1(d, OP == TOp::kSleN ? 1u : 0u);
    } else if constexpr (OP == TOp::kMuxN) {
      const bool sel = (ar[ins.a + lane] & 1u) != 0;
      const std::uint64_t* src =
          ar + (sel ? ins.b : ins.c) + std::size_t{lane} * ins.dw;
      return storeN(d, src, ins.dw);
    } else if constexpr (OP == TOp::kSliceN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      for (unsigned j = 0; j < ins.dw; ++j) {
        const unsigned bitpos = ins.param + j * 64;
        const unsigned ws = bitpos / 64, bs = bitpos % 64;
        std::uint64_t v = ws < ins.aw ? a[ws] >> bs : 0;
        if (bs != 0 && ws + 1 < ins.aw) v |= a[ws + 1] << (64 - bs);
        s[j] = v;
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kSExtN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      if (((a[sw] >> sb) & 1u) != 0) span_fill(s, ins.a_width, ins.width);
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kRedOrN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t any = 0;
      for (unsigned w = 0; w < ins.aw; ++w) any |= a[w];
      return store1(d, any != 0 ? 1u : 0u);
    } else if constexpr (OP == TOp::kRedAndN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      bool all = true;
      for (unsigned w = 0; w + 1 < ins.aw; ++w) all &= a[w] == ~0ull;
      all &= a[ins.aw - 1] == top_mask(ins.a_width);
      return store1(d, all ? 1u : 0u);
    } else if constexpr (OP == TOp::kRedXorN) {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      unsigned par = 0;
      for (unsigned w = 0; w < ins.aw; ++w)
        par += static_cast<unsigned>(std::popcount(a[w]));
      return store1(d, par & 1u);
    } else if constexpr (OP == TOp::kConcat) {
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      unsigned pos = 0;
      for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
        const ConcatPart& part = e.prog_.parts[ins.param + pi];
        const std::uint64_t* src =
            ar + part.off + std::size_t{lane} * part.words;
        const unsigned wo = pos / 64, bo = pos % 64;
        for (unsigned w = 0; w < part.words; ++w) {
          s[wo + w] |= src[w] << bo;
          if (bo != 0 && wo + w + 1 < ins.dw)
            s[wo + w + 1] |= src[w] >> (64 - bo);
        }
        pos += part.width;
      }
      return storeN(d, s, ins.dw);
    } else if constexpr (OP == TOp::kMemRead) {
      const Program::Mem& pm = e.prog_.mems[ins.param];
      const std::uint64_t addr = ar[ins.a + std::size_t{lane} * ins.aw];
      if (ins.dw == 1) {
        const std::uint64_t v =
            addr < pm.depth
                ? e.rt_.mem(ins.param)[(addr * e.prog_.lanes + lane) * pm.words]
                : 0;
        return store1(d, v);
      }
      if (addr >= pm.depth) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      } else {
        const std::uint64_t* src = e.rt_.mem(ins.param) +
                                   (addr * e.prog_.lanes + lane) * pm.words;
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = src[w];
      }
      return storeN(d, s, ins.dw);
    } else {
      return false;  // unreachable: run() handles single-word ops
    }
  }

  static NativeEngine::Handler pick(TOp op) {
    switch (op) {
      case TOp::kAdd1: return &run<TOp::kAdd1>;
      case TOp::kSub1: return &run<TOp::kSub1>;
      case TOp::kMul1: return &run<TOp::kMul1>;
      case TOp::kAnd1: return &run<TOp::kAnd1>;
      case TOp::kOr1: return &run<TOp::kOr1>;
      case TOp::kXor1: return &run<TOp::kXor1>;
      case TOp::kNot1: return &run<TOp::kNot1>;
      case TOp::kShlI1: return &run<TOp::kShlI1>;
      case TOp::kLshrI1: return &run<TOp::kLshrI1>;
      case TOp::kAshrI1: return &run<TOp::kAshrI1>;
      case TOp::kShlV1: return &run<TOp::kShlV1>;
      case TOp::kLshrV1: return &run<TOp::kLshrV1>;
      case TOp::kEq1: return &run<TOp::kEq1>;
      case TOp::kNe1: return &run<TOp::kNe1>;
      case TOp::kUlt1: return &run<TOp::kUlt1>;
      case TOp::kUle1: return &run<TOp::kUle1>;
      case TOp::kSlt1: return &run<TOp::kSlt1>;
      case TOp::kSle1: return &run<TOp::kSle1>;
      case TOp::kMux1: return &run<TOp::kMux1>;
      case TOp::kSlice1: return &run<TOp::kSlice1>;
      case TOp::kSExt1: return &run<TOp::kSExt1>;
      case TOp::kRedOr1: return &run<TOp::kRedOr1>;
      case TOp::kRedAnd1: return &run<TOp::kRedAnd1>;
      case TOp::kRedXor1: return &run<TOp::kRedXor1>;
      case TOp::kCopyN: return &run<TOp::kCopyN>;
      case TOp::kAddN: return &run<TOp::kAddN>;
      case TOp::kSubN: return &run<TOp::kSubN>;
      case TOp::kMulN: return &run<TOp::kMulN>;
      case TOp::kAndN: return &run<TOp::kAndN>;
      case TOp::kOrN: return &run<TOp::kOrN>;
      case TOp::kXorN: return &run<TOp::kXorN>;
      case TOp::kNotN: return &run<TOp::kNotN>;
      case TOp::kShlIN: return &run<TOp::kShlIN>;
      case TOp::kLshrIN: return &run<TOp::kLshrIN>;
      case TOp::kAshrIN: return &run<TOp::kAshrIN>;
      case TOp::kShlVN: return &run<TOp::kShlVN>;
      case TOp::kLshrVN: return &run<TOp::kLshrVN>;
      case TOp::kEqN: return &run<TOp::kEqN>;
      case TOp::kNeN: return &run<TOp::kNeN>;
      case TOp::kUltN: return &run<TOp::kUltN>;
      case TOp::kUleN: return &run<TOp::kUleN>;
      case TOp::kSltN: return &run<TOp::kSltN>;
      case TOp::kSleN: return &run<TOp::kSleN>;
      case TOp::kMuxN: return &run<TOp::kMuxN>;
      case TOp::kSliceN: return &run<TOp::kSliceN>;
      case TOp::kSExtN: return &run<TOp::kSExtN>;
      case TOp::kRedOrN: return &run<TOp::kRedOrN>;
      case TOp::kRedAndN: return &run<TOp::kRedAndN>;
      case TOp::kRedXorN: return &run<TOp::kRedXorN>;
      case TOp::kConcat: return &run<TOp::kConcat>;
      case TOp::kMemRead: return &run<TOp::kMemRead>;
    }
    throw std::logic_error("tape engine: unknown opcode");
  }
};

// --- the lane switch (kLaneSwitch) -----------------------------------------

bool NativeEngine::exec_one(const Instr& ins, unsigned lane) {
  std::uint64_t* const ar = rt_.arena();
  std::uint64_t* d = ar + ins.dst + std::size_t{lane} * ins.dw;
  std::uint64_t* s = scratch_.data();
  switch (ins.op) {
    case TOp::kAdd1:
      return store1(d, (ar[ins.a + lane] + ar[ins.b + lane]) & ins.mask);
    case TOp::kSub1:
      return store1(d, (ar[ins.a + lane] - ar[ins.b + lane]) & ins.mask);
    case TOp::kMul1:
      return store1(d, (ar[ins.a + lane] * ar[ins.b + lane]) & ins.mask);
    case TOp::kAnd1:
      return store1(d, ar[ins.a + lane] & ar[ins.b + lane]);
    case TOp::kOr1:
      return store1(d, ar[ins.a + lane] | ar[ins.b + lane]);
    case TOp::kXor1:
      return store1(d, ar[ins.a + lane] ^ ar[ins.b + lane]);
    case TOp::kNot1:
      return store1(d, ~ar[ins.a + lane] & ins.mask);
    case TOp::kShlI1:
      return store1(d, (ar[ins.a + lane] << ins.param) & ins.mask);
    case TOp::kLshrI1:
      return store1(d, ar[ins.a + lane] >> ins.param);
    case TOp::kAshrI1: {
      const std::uint64_t a = ar[ins.a + lane];
      const unsigned w = ins.width;
      const bool sign = ((a >> (w - 1)) & 1u) != 0;
      std::uint64_t v;
      if (ins.param >= w) {
        v = sign ? ins.mask : 0;
      } else {
        v = a >> ins.param;
        if (sign) v |= ins.mask ^ (ins.mask >> ins.param);
      }
      return store1(d, v);
    }
    case TOp::kShlV1: {
      const std::uint64_t amt =
          shift_amount(ar + ins.b + std::size_t{lane} * ins.aw, ins.aw);
      return store1(d, amt >= ins.width
                           ? 0
                           : (ar[ins.a + lane] << amt) & ins.mask);
    }
    case TOp::kLshrV1: {
      const std::uint64_t amt =
          shift_amount(ar + ins.b + std::size_t{lane} * ins.aw, ins.aw);
      return store1(d, amt >= ins.width ? 0 : ar[ins.a + lane] >> amt);
    }
    case TOp::kEq1:
      return store1(d, ar[ins.a + lane] == ar[ins.b + lane] ? 1u : 0u);
    case TOp::kNe1:
      return store1(d, ar[ins.a + lane] != ar[ins.b + lane] ? 1u : 0u);
    case TOp::kUlt1:
      return store1(d, ar[ins.a + lane] < ar[ins.b + lane] ? 1u : 0u);
    case TOp::kUle1:
      return store1(d, ar[ins.a + lane] <= ar[ins.b + lane] ? 1u : 0u);
    case TOp::kSlt1:
    case TOp::kSle1: {
      const unsigned sh = 64 - ins.a_width;
      const auto a = static_cast<std::int64_t>(ar[ins.a + lane] << sh);
      const auto b = static_cast<std::int64_t>(ar[ins.b + lane] << sh);
      const bool r = ins.op == TOp::kSlt1 ? a < b : a <= b;
      return store1(d, r ? 1u : 0u);
    }
    case TOp::kMux1:
      return store1(d, (ar[ins.a + lane] & 1u) != 0 ? ar[ins.b + lane]
                                                    : ar[ins.c + lane]);
    case TOp::kSlice1:
      return store1(d, (ar[ins.a + lane] >> ins.param) & ins.mask);
    case TOp::kSExt1: {
      const std::uint64_t a = ar[ins.a + lane];
      const bool sign = ((a >> (ins.a_width - 1)) & 1u) != 0;
      return store1(d, sign ? (a | (ins.mask ^ mask64(ins.a_width))) : a);
    }
    case TOp::kRedOr1:
      return store1(d, ar[ins.a + lane] != 0 ? 1u : 0u);
    case TOp::kRedAnd1:
      return store1(d, ar[ins.a + lane] == mask64(ins.a_width) ? 1u : 0u);
    case TOp::kRedXor1:
      return store1(d, std::popcount(ar[ins.a + lane]) & 1u);
    // Multi-word and width-generic: the threaded handlers' per-lane code.
    case TOp::kCopyN:
      return Exec::run_wide<TOp::kCopyN>(*this, ins, lane, s);
    case TOp::kAddN:
      return Exec::run_wide<TOp::kAddN>(*this, ins, lane, s);
    case TOp::kSubN:
      return Exec::run_wide<TOp::kSubN>(*this, ins, lane, s);
    case TOp::kMulN:
      return Exec::run_wide<TOp::kMulN>(*this, ins, lane, s);
    case TOp::kAndN:
      return Exec::run_wide<TOp::kAndN>(*this, ins, lane, s);
    case TOp::kOrN:
      return Exec::run_wide<TOp::kOrN>(*this, ins, lane, s);
    case TOp::kXorN:
      return Exec::run_wide<TOp::kXorN>(*this, ins, lane, s);
    case TOp::kNotN:
      return Exec::run_wide<TOp::kNotN>(*this, ins, lane, s);
    case TOp::kShlIN:
      return Exec::run_wide<TOp::kShlIN>(*this, ins, lane, s);
    case TOp::kLshrIN:
      return Exec::run_wide<TOp::kLshrIN>(*this, ins, lane, s);
    case TOp::kAshrIN:
      return Exec::run_wide<TOp::kAshrIN>(*this, ins, lane, s);
    case TOp::kShlVN:
      return Exec::run_wide<TOp::kShlVN>(*this, ins, lane, s);
    case TOp::kLshrVN:
      return Exec::run_wide<TOp::kLshrVN>(*this, ins, lane, s);
    case TOp::kEqN:
      return Exec::run_wide<TOp::kEqN>(*this, ins, lane, s);
    case TOp::kNeN:
      return Exec::run_wide<TOp::kNeN>(*this, ins, lane, s);
    case TOp::kUltN:
      return Exec::run_wide<TOp::kUltN>(*this, ins, lane, s);
    case TOp::kUleN:
      return Exec::run_wide<TOp::kUleN>(*this, ins, lane, s);
    case TOp::kSltN:
      return Exec::run_wide<TOp::kSltN>(*this, ins, lane, s);
    case TOp::kSleN:
      return Exec::run_wide<TOp::kSleN>(*this, ins, lane, s);
    case TOp::kMuxN:
      return Exec::run_wide<TOp::kMuxN>(*this, ins, lane, s);
    case TOp::kSliceN:
      return Exec::run_wide<TOp::kSliceN>(*this, ins, lane, s);
    case TOp::kSExtN:
      return Exec::run_wide<TOp::kSExtN>(*this, ins, lane, s);
    case TOp::kRedOrN:
      return Exec::run_wide<TOp::kRedOrN>(*this, ins, lane, s);
    case TOp::kRedAndN:
      return Exec::run_wide<TOp::kRedAndN>(*this, ins, lane, s);
    case TOp::kRedXorN:
      return Exec::run_wide<TOp::kRedXorN>(*this, ins, lane, s);
    case TOp::kConcat:
      return Exec::run_wide<TOp::kConcat>(*this, ins, lane, s);
    case TOp::kMemRead:
      return Exec::run_wide<TOp::kMemRead>(*this, ins, lane, s);
  }
  throw std::logic_error("tape engine: unknown opcode");
}

// --- NativeEngine ----------------------------------------------------------

namespace {

/// kLaneSwitch keeps SimMode::kTape's 1..64 lane contract; Program::compile
/// checks the 1..kMaxLanes range of kCompiled.
unsigned checked_lanes(unsigned lanes, Evaluator ev) {
  if (ev == Evaluator::kLaneSwitch && (lanes == 0 || lanes > 64))
    throw std::logic_error(
        "rtl::tape: SimMode::kTape supports 1..64 lanes "
        "(use SimMode::kNative for wider stimulus)");
  return lanes;
}

}  // namespace

NativeEngine::NativeEngine(const Module& m, unsigned lanes, CodegenOptions opt,
                           Evaluator ev)
    : prog_(Program::compile(m, checked_lanes(lanes, ev))),
      ev_(ev),
      lw_((prog_.lanes + 63) / 64),
      rt_(prog_.arena_size, prog_.stats.levels) {
  for (const Program::Mem& pm : prog_.mems)
    rt_.add_memory(std::size_t{pm.depth} * pm.words * prog_.lanes);
  for (const auto& [off, v] : prog_.const_init)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(off, static_cast<std::uint16_t>(words_of(v.width())), l,
                      v);
  std::uint16_t max_dw = 1;
  for (const Instr& ins : prog_.instrs)
    max_dw = std::max<std::uint16_t>(max_dw, ins.dw);
  scratch_.assign(max_dw, 0);
  std::uint32_t roff = 0;
  for (const auto& reg : prog_.regs) {
    reg_next_off_.push_back(roff);
    roff += reg.words * prog_.lanes;
  }
  reg_next_.assign(roff, 0);
  // One snapshot word per lane; regs with no enable slot are always-on,
  // so their rows are prefilled with 1 here and never rewritten.
  reg_en_.assign(std::size_t{prog_.regs.size()} * prog_.lanes, 0);
  for (std::size_t r = 0; r < prog_.regs.size(); ++r)
    if (prog_.regs[r].en == kNoSlot)
      std::fill_n(reg_en_.begin() + r * prog_.lanes, prog_.lanes, 1);
  for (const auto& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.words, l, reg.init);
  std::uint32_t aat = 0, dat = 0;
  for (std::uint32_t mi = 0; mi < prog_.mems.size(); ++mi)
    for (const auto& port : prog_.mems[mi].writes) {
      Wp wp;
      wp.mem = mi;
      wp.port = port;
      wp.addr_at = aat;
      wp.data_at = dat;
      wp.words = prog_.mems[mi].words;
      aat += prog_.lanes;
      dat += wp.words * prog_.lanes;
      wps_.push_back(wp);
    }
  wp_en_.assign(std::size_t{wps_.size()} * prog_.lanes, 0);
  wp_addr_.assign(aat, 0);
  wp_data_.assign(dat, 0);

  if (ev_ == Evaluator::kCompiled) {
    handlers_.reserve(prog_.instrs.size());
    for (const Instr& ins : prog_.instrs)
      handlers_.push_back(Exec::pick(ins.op));
    rt_.bind([this] { return emit_cpp(prog_); }, std::move(opt),
             {"osss_tape", 3, prog_.lanes, "arena", prog_.arena_size,
              /*step_settles=*/false},
             &run_instr, this);
  }
  // Power-on snapshot: consts + reg inits written, inputs and mems all 0.
  eval();
  rt_.take_poweron();
}

NativeEngine::~NativeEngine() = default;

bool NativeEngine::run_instr(void* engine, unsigned i) noexcept {
  NativeEngine& e = *static_cast<NativeEngine*>(engine);
  return e.handlers_[i](e, e.prog_.instrs[i]);
}

void NativeEngine::write_lane_bits(std::uint32_t off, std::uint16_t words,
                                   unsigned lane, const Bits& value) {
  std::uint64_t* d = rt_.arena() + off + std::size_t{lane} * words;
  for (unsigned w = 0; w < words; ++w) d[w] = value.word(w);
}

Bits NativeEngine::read_lane_bits(std::uint32_t off, std::uint16_t words,
                                  unsigned width, unsigned lane) const {
  return bits_from_words(rt_.arena() + off + std::size_t{lane} * words,
                         width);
}

void NativeEngine::set_input(unsigned index, const Bits& value) {
  const Program::Port& port = prog_.inputs.at(index);
  bool changed = false;
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    std::uint64_t* d = rt_.arena() + port.off + std::size_t{l} * port.words;
    for (unsigned w = 0; w < port.words; ++w) {
      const std::uint64_t nv = value.word(w);
      if (d[w] != nv) {
        d[w] = nv;
        changed = true;
      }
    }
  }
  if (changed) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::set_input_u64(unsigned index, std::uint64_t value) {
  const Program::Port& port = prog_.inputs.at(index);
  if (port.width < 64) value &= (std::uint64_t{1} << port.width) - 1;
  bool changed = false;
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    std::uint64_t* d = rt_.arena() + port.off + std::size_t{l} * port.words;
    if (d[0] != value) {
      d[0] = value;
      changed = true;
    }
    for (unsigned w = 1; w < port.words; ++w)
      if (d[w] != 0) {
        d[w] = 0;
        changed = true;
      }
  }
  if (changed) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::set_input_lanes(unsigned index,
                                   std::span<const std::uint64_t> bit_lanes) {
  const Program::Port& port = prog_.inputs.at(index);
  if (bit_lanes.size() != std::size_t{port.width} * lw_)
    throw std::logic_error("tape engine: set_input_lanes width mismatch");
  // One 64-bit column of the port at a time: word w of every lane.
  std::uint64_t nv[tape::kMaxLanes];
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < port.words; ++w) {
    par::lane_words_to_values(bit_lanes.data() + std::size_t{w} * 64 * lw_,
                              prog_.lanes, std::min(64u, port.width - w * 64),
                              nv, 1);
    std::uint64_t* d = rt_.arena() + port.off + w;
    for (unsigned l = 0; l < prog_.lanes; ++l) {
      std::uint64_t& slot = d[std::size_t{l} * port.words];
      diff |= slot ^ nv[l];
      slot = nv[l];
    }
  }
  if (diff != 0) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::set_input_values(unsigned index,
                                    std::span<const std::uint64_t> values) {
  const Program::Port& port = prog_.inputs.at(index);
  if (port.words != 1)
    throw std::logic_error(
        "tape engine: set_input_values needs a <= 64-bit port");
  if (values.size() != prog_.lanes)
    throw std::logic_error("tape engine: set_input_values lane count mismatch");
  const std::uint64_t mask =
      port.width < 64 ? (std::uint64_t{1} << port.width) - 1 : ~std::uint64_t{0};
  std::uint64_t* d = rt_.arena() + port.off;
  std::uint64_t diff = 0;
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    const std::uint64_t nv = values[l] & mask;
    diff |= nv ^ d[l];
    d[l] = nv;
  }
  if (diff != 0) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::check_lane(unsigned lane) const {
  if (lane >= prog_.lanes)
    throw std::logic_error("tape engine: lane " + std::to_string(lane) +
                           " out of range (" + std::to_string(prog_.lanes) +
                           " lanes)");
}

Bits NativeEngine::output(unsigned index, unsigned lane) {
  check_lane(lane);
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  return read_lane_bits(port.off, port.words, port.width, lane);
}

std::uint64_t NativeEngine::output_u64(unsigned index) {
  eval();
  return rt_.arena()[prog_.outputs.at(index).off];
}

std::vector<std::uint64_t> NativeEngine::output_words(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  std::vector<std::uint64_t> out(std::size_t{port.width} * lw_);
  for (unsigned w = 0; w < port.words; ++w)
    par::values_to_lane_words(rt_.arena() + port.off + w, port.words,
                              prog_.lanes, std::min(64u, port.width - w * 64),
                              out.data() + std::size_t{w} * 64 * lw_);
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_values(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  if (port.words != 1)
    throw std::logic_error("tape engine: output_values needs a <= 64-bit port");
  const std::uint64_t* s = rt_.arena() + port.off;
  return std::vector<std::uint64_t>(s, s + prog_.lanes);
}

Bits NativeEngine::node_value(NodeId id, unsigned lane) {
  check_lane(lane);
  eval();
  if (id >= prog_.node_slot.size() || prog_.node_slot[id] == kNoSlot)
    throw std::logic_error(
        "tape engine: node was pruned or folded away (no arena slot)");
  const unsigned width = prog_.node_width[id];
  return read_lane_bits(prog_.node_slot[id],
                        static_cast<std::uint16_t>(words_of(width)), width,
                        lane);
}

void NativeEngine::eval() {
  rt_.settle([this] {
    if (ev_ == Evaluator::kLaneSwitch)
      sweep<true>();
    else
      sweep<false>();
  });
}

template <bool kLaneSwitch>
void NativeEngine::sweep() {
  const std::size_t levels = prog_.level_offset.size() - 1;
  for (std::size_t lev = 0; lev < levels; ++lev) {
    if (rt_.dirty()[lev] == 0) {
      ++rt_.stats().levels_skipped;
      continue;
    }
    rt_.dirty()[lev] = 0;
    ++rt_.stats().levels_evaluated;
    const std::uint32_t b = prog_.level_offset[lev];
    const std::uint32_t e = prog_.level_offset[lev + 1];
    for (std::uint32_t i = b; i < e; ++i) {
      ++rt_.stats().evals;
      const Instr& ins = prog_.instrs[i];
      bool changed = false;
      if constexpr (kLaneSwitch) {
        for (unsigned l = 0; l < prog_.lanes; ++l) changed |= exec_one(ins, l);
      } else {
        changed = handlers_[i](*this, ins);
      }
      if (changed) rt_.mark(prog_.instr_fl_off, prog_.instr_fl, i);
    }
  }
}

void NativeEngine::step() {
  eval();
  rt_.step([this] { commit(); });
}

void NativeEngine::commit() {
  const unsigned lanes = prog_.lanes;
  std::uint64_t* const ar = rt_.arena();
  // Sample next state before committing anything: all registers and write
  // ports observe the same pre-edge values (matches the interpreter).
  // Enables live one word per lane in the lane-major arena, so the
  // snapshot is a contiguous copy and the commits below stay branchless.
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const Program::Reg& reg = prog_.regs[r];
    std::uint64_t any = 1;
    if (reg.en != kNoSlot) {
      std::uint64_t* en = reg_en_.data() + r * lanes;
      any = 0;
      for (unsigned l = 0; l < lanes; ++l) any |= en[l] = ar[reg.en + l];
    }
    if (any != 0)
      std::copy_n(ar + reg.d, std::size_t{reg.words} * lanes,
                  reg_next_.begin() + reg_next_off_[r]);
  }
  for (std::size_t wi = 0; wi < wps_.size(); ++wi) {
    const Wp& wp = wps_[wi];
    std::uint64_t* en = wp_en_.data() + wi * lanes;
    std::uint64_t any = 0;
    for (unsigned l = 0; l < lanes; ++l) any |= en[l] = ar[wp.port.en + l];
    if (any == 0) continue;
    for (unsigned l = 0; l < lanes; ++l)
      wp_addr_[wp.addr_at + l] =
          ar[wp.port.addr + std::size_t{l} * wp.port.addr_words];
    std::copy_n(ar + wp.port.data, std::size_t{wp.words} * lanes,
                wp_data_.begin() + wp.data_at);
  }
  // Commit registers.  The single-word case (the common one) is a
  // branchless masked merge over contiguous lanes — vectorizable.
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const std::uint64_t* en = reg_en_.data() + r * lanes;
    const Program::Reg& reg = prog_.regs[r];
    std::uint64_t diff = 0;
    if (reg.words == 1) {
      std::uint64_t* q = ar + reg.q;
      const std::uint64_t* nd = reg_next_.data() + reg_next_off_[r];
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t m = ~((en[l] & 1u) - 1);  // en ? ~0 : 0
        const std::uint64_t nv = (q[l] & ~m) | (nd[l] & m);
        diff |= nv ^ q[l];
        q[l] = nv;
      }
    } else {
      for (unsigned l = 0; l < lanes; ++l) {
        if ((en[l] & 1u) == 0) continue;
        std::uint64_t* q = ar + reg.q + std::size_t{l} * reg.words;
        const std::uint64_t* nd =
            reg_next_.data() + reg_next_off_[r] + std::size_t{l} * reg.words;
        for (unsigned w = 0; w < reg.words; ++w) {
          diff |= q[w] ^ nd[w];
          q[w] = nd[w];
        }
      }
    }
    if (diff != 0) rt_.mark(prog_.reg_fl_off, prog_.reg_fl, r);
  }
  // Commit memory writes (port order = declaration order; later ports win).
  for (std::size_t wi = 0; wi < wps_.size(); ++wi) {
    const std::uint64_t* en = wp_en_.data() + wi * lanes;
    const Wp& wp = wps_[wi];
    const Program::Mem& pm = prog_.mems[wp.mem];
    bool changed = false;
    for (unsigned l = 0; l < lanes; ++l) {
      if ((en[l] & 1u) == 0) continue;
      const std::uint64_t addr = wp_addr_[wp.addr_at + l];
      if (addr >= pm.depth) continue;
      std::uint64_t* e = rt_.mem(wp.mem) + (addr * lanes + l) * pm.words;
      const std::uint64_t* s =
          wp_data_.data() + wp.data_at + std::size_t{l} * pm.words;
      for (unsigned w = 0; w < pm.words; ++w)
        if (e[w] != s[w]) {
          e[w] = s[w];
          changed = true;
        }
    }
    if (changed) rt_.mark(prog_.mem_fl_off, prog_.mem_fl, wp.mem);
  }
}

void NativeEngine::reset() {
  for (const Program::Reg& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.words, l, reg.init);
  rt_.reset();
}

void NativeEngine::restore_poweron() { rt_.restore_poweron(); }

Bits NativeEngine::mem_word(unsigned mem_index, unsigned word) {
  const Program::Mem& pm = prog_.mems.at(mem_index);
  if (word >= pm.depth)
    throw std::out_of_range("tape engine: mem word out of range");
  return bits_from_words(
      rt_.mem(mem_index) + std::size_t{word} * prog_.lanes * pm.words,
      pm.width);
}

void NativeEngine::poke_mem(unsigned mem_index, unsigned word,
                            const Bits& value) {
  const Program::Mem& pm = prog_.mems.at(mem_index);
  if (word >= pm.depth)
    throw std::out_of_range("tape engine: mem word out of range");
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    std::uint64_t* e =
        rt_.mem(mem_index) + (std::size_t{word} * prog_.lanes + l) * pm.words;
    for (unsigned w = 0; w < pm.words; ++w) e[w] = value.word(w);
  }
  rt_.mark(prog_.mem_fl_off, prog_.mem_fl, mem_index);
}

void NativeEngine::poke_reg(unsigned reg_index, const Bits& value) {
  const Program::Reg& reg = prog_.regs.at(reg_index);
  for (unsigned l = 0; l < prog_.lanes; ++l)
    write_lane_bits(reg.q, reg.words, l, value);
  rt_.mark(prog_.reg_fl_off, prog_.reg_fl, reg_index);
}

}  // namespace osss::rtl::tape
