// codegen.cpp — NativeEngine, the one tape runtime: runtime compile +
// dlopen of the generated tape code, the threaded handlers, the per-lane
// opcode switch, port I/O and the register/memory commit.
//
// The two interpreted evaluators share one definition per opcode and one
// opcode dispatch (Exec::dispatch, a runtime opcode to a template
// argument).  Exec::lane1 is the value a single-word opcode stores in one
// lane; Exec::run_wide is the multi-word and width-generic implementation,
// one lane at a time.  The threaded handlers (Exec::run, bound per
// instruction through the dispatch at construction) each run their lane
// loop over those; the generated code calls them back (run_instr) for
// every instruction wider than one word.  The lane switch (exec_one, kTape)
// evaluates one lane per call and dispatches on the opcode the tape holds
// each time.  R7 measures the generated code against this switch, so it
// keeps the interpreted tape's per-lane dispatch.  Both are differentially
// tested against the interpreter.

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

// --- the per-lane definitions and the one opcode dispatch ------------------

struct NativeEngine::Exec {
  /// The value single-word opcode OP stores in lane `l` of its destination.
  /// Operand x of that lane is ar[x + l], except a variable shift's amount
  /// (aw words per lane).  Both interpreted evaluators compute their
  /// single-word results here.
  template <TOp OP>
  static std::uint64_t lane1(const Instr& ins, const std::uint64_t* ar,
                             unsigned l) {
    const auto at = [ar, l](std::uint32_t off) { return (ar + off)[l]; };
    const std::uint64_t a = at(ins.a);
    if constexpr (OP == TOp::kAdd1) return (a + at(ins.b)) & ins.mask;
    else if constexpr (OP == TOp::kSub1) return (a - at(ins.b)) & ins.mask;
    else if constexpr (OP == TOp::kMul1) return (a * at(ins.b)) & ins.mask;
    else if constexpr (OP == TOp::kAnd1) return a & at(ins.b);
    else if constexpr (OP == TOp::kOr1) return a | at(ins.b);
    else if constexpr (OP == TOp::kXor1) return a ^ at(ins.b);
    else if constexpr (OP == TOp::kNot1) return ~a & ins.mask;
    else if constexpr (OP == TOp::kShlI1) return (a << ins.param) & ins.mask;
    else if constexpr (OP == TOp::kLshrI1) return a >> ins.param;
    else if constexpr (OP == TOp::kAshrI1) {
      const bool sign = ((a >> (ins.width - 1)) & 1u) != 0;
      if (ins.param >= ins.width) return sign ? ins.mask : 0;
      const std::uint64_t r = a >> ins.param;
      return sign ? r | (ins.mask ^ (ins.mask >> ins.param)) : r;
    } else if constexpr (OP == TOp::kShlV1 || OP == TOp::kLshrV1) {
      const std::uint64_t amt =
          shift_amount(ar + ins.b + std::size_t{l} * ins.aw, ins.aw);
      if (amt >= ins.width) return 0;
      return OP == TOp::kShlV1 ? (a << amt) & ins.mask : a >> amt;
    } else if constexpr (OP == TOp::kEq1) return a == at(ins.b);
    else if constexpr (OP == TOp::kNe1) return a != at(ins.b);
    else if constexpr (OP == TOp::kUlt1) return a < at(ins.b);
    else if constexpr (OP == TOp::kUle1) return a <= at(ins.b);
    else if constexpr (OP == TOp::kSlt1 || OP == TOp::kSle1) {
      const unsigned sh = 64 - ins.a_width;
      const auto x = static_cast<std::int64_t>(a << sh);
      const auto y = static_cast<std::int64_t>(at(ins.b) << sh);
      return OP == TOp::kSlt1 ? x < y : x <= y;
    } else if constexpr (OP == TOp::kMux1) {
      return (a & 1u) != 0 ? at(ins.b) : at(ins.c);
    } else if constexpr (OP == TOp::kSlice1) {
      return (a >> ins.param) & ins.mask;
    } else if constexpr (OP == TOp::kSExt1) {
      const bool sign = ((a >> (ins.a_width - 1)) & 1u) != 0;
      return sign ? a | (ins.mask ^ mask64(ins.a_width)) : a;
    } else if constexpr (OP == TOp::kRedOr1) return a != 0;
    else if constexpr (OP == TOp::kRedAnd1) return a == mask64(ins.a_width);
    else {
      static_assert(OP == TOp::kRedXor1, "lane1 computes single-word ops");
      return std::popcount(a) & 1u;
    }
  }

  /// Threaded handler: instruction `in` over every lane, saying whether
  /// any lane's result changed.
  template <TOp OP>
  static bool run(NativeEngine& e, const Instr& in) {
    const unsigned lanes = e.prog_.lanes;
    if constexpr (single_word(OP)) {
      // A copy: arena stores cannot alias it, so its fields stay in
      // registers across the lane loop.
      const Instr ins = in;
      std::uint64_t* const ar = e.rt_.arena();
      std::uint64_t* const d = ar + ins.dst;
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t nv = lane1<OP>(ins, ar, l);
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
        changed |= run_wide<OP>(e, in, l, s);
      return changed;
    }
  }

  /// Multi-word or width-generic opcode OP in one lane, staged through the
  /// scratch words `s`: the engine's one multi-word implementation.
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
      // Parity by XOR-folding: the words into one, then its halves (no
      // popcount, which is a libgcc call without -mpopcnt).
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t x = 0;
      for (unsigned w = 0; w < ins.aw; ++w) x ^= a[w];
      for (unsigned sh = 32; sh != 0; sh /= 2) x ^= x >> sh;
      return store1(d, x & 1u);
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
    } else {
      static_assert(OP == TOp::kMemRead, "run_wide computes multi-word ops");
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
    }
  }

  /// `f.template operator()<OP>()` for the runtime opcode `op`: the one
  /// opcode dispatch, which binds the handlers and drives the lane switch.
  template <class F>
  static decltype(auto) dispatch(TOp op, F&& f) {
    switch (op) {
      case TOp::kAdd1: return f.template operator()<TOp::kAdd1>();
      case TOp::kSub1: return f.template operator()<TOp::kSub1>();
      case TOp::kMul1: return f.template operator()<TOp::kMul1>();
      case TOp::kAnd1: return f.template operator()<TOp::kAnd1>();
      case TOp::kOr1: return f.template operator()<TOp::kOr1>();
      case TOp::kXor1: return f.template operator()<TOp::kXor1>();
      case TOp::kNot1: return f.template operator()<TOp::kNot1>();
      case TOp::kShlI1: return f.template operator()<TOp::kShlI1>();
      case TOp::kLshrI1: return f.template operator()<TOp::kLshrI1>();
      case TOp::kAshrI1: return f.template operator()<TOp::kAshrI1>();
      case TOp::kShlV1: return f.template operator()<TOp::kShlV1>();
      case TOp::kLshrV1: return f.template operator()<TOp::kLshrV1>();
      case TOp::kEq1: return f.template operator()<TOp::kEq1>();
      case TOp::kNe1: return f.template operator()<TOp::kNe1>();
      case TOp::kUlt1: return f.template operator()<TOp::kUlt1>();
      case TOp::kUle1: return f.template operator()<TOp::kUle1>();
      case TOp::kSlt1: return f.template operator()<TOp::kSlt1>();
      case TOp::kSle1: return f.template operator()<TOp::kSle1>();
      case TOp::kMux1: return f.template operator()<TOp::kMux1>();
      case TOp::kSlice1: return f.template operator()<TOp::kSlice1>();
      case TOp::kSExt1: return f.template operator()<TOp::kSExt1>();
      case TOp::kRedOr1: return f.template operator()<TOp::kRedOr1>();
      case TOp::kRedAnd1: return f.template operator()<TOp::kRedAnd1>();
      case TOp::kRedXor1: return f.template operator()<TOp::kRedXor1>();
      case TOp::kCopyN: return f.template operator()<TOp::kCopyN>();
      case TOp::kAddN: return f.template operator()<TOp::kAddN>();
      case TOp::kSubN: return f.template operator()<TOp::kSubN>();
      case TOp::kMulN: return f.template operator()<TOp::kMulN>();
      case TOp::kAndN: return f.template operator()<TOp::kAndN>();
      case TOp::kOrN: return f.template operator()<TOp::kOrN>();
      case TOp::kXorN: return f.template operator()<TOp::kXorN>();
      case TOp::kNotN: return f.template operator()<TOp::kNotN>();
      case TOp::kShlIN: return f.template operator()<TOp::kShlIN>();
      case TOp::kLshrIN: return f.template operator()<TOp::kLshrIN>();
      case TOp::kAshrIN: return f.template operator()<TOp::kAshrIN>();
      case TOp::kShlVN: return f.template operator()<TOp::kShlVN>();
      case TOp::kLshrVN: return f.template operator()<TOp::kLshrVN>();
      case TOp::kEqN: return f.template operator()<TOp::kEqN>();
      case TOp::kNeN: return f.template operator()<TOp::kNeN>();
      case TOp::kUltN: return f.template operator()<TOp::kUltN>();
      case TOp::kUleN: return f.template operator()<TOp::kUleN>();
      case TOp::kSltN: return f.template operator()<TOp::kSltN>();
      case TOp::kSleN: return f.template operator()<TOp::kSleN>();
      case TOp::kMuxN: return f.template operator()<TOp::kMuxN>();
      case TOp::kSliceN: return f.template operator()<TOp::kSliceN>();
      case TOp::kSExtN: return f.template operator()<TOp::kSExtN>();
      case TOp::kRedOrN: return f.template operator()<TOp::kRedOrN>();
      case TOp::kRedAndN: return f.template operator()<TOp::kRedAndN>();
      case TOp::kRedXorN: return f.template operator()<TOp::kRedXorN>();
      case TOp::kConcat: return f.template operator()<TOp::kConcat>();
      case TOp::kMemRead: return f.template operator()<TOp::kMemRead>();
    }
    throw std::logic_error("tape engine: unknown opcode");
  }
};

// --- the lane switch (kLaneSwitch) -----------------------------------------

// Out of line, as a call per lane from sweep<true>: R7 gate 2 measures the
// generated code against this switch's cost, and inlined into the sweep it
// ran kTape's rows ~1.3x faster.
[[gnu::noinline]] bool NativeEngine::exec_one(const Instr& ins, unsigned lane) {
  std::uint64_t* const ar = rt_.arena();
  std::uint64_t* d = ar + ins.dst + std::size_t{lane} * ins.dw;
  std::uint64_t* s = scratch_.data();
  return Exec::dispatch(ins.op, [&]<TOp OP>() {
    if constexpr (single_word(OP))
      return store1(d, Exec::lane1<OP>(ins, ar, lane));
    else
      return Exec::run_wide<OP>(*this, ins, lane, s);
  });
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
  samples_.assign(prog_.sample_words, 0);
  for (const auto& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.words, l, reg.init);

  if (ev_ == Evaluator::kCompiled) {
    handlers_.reserve(prog_.instrs.size());
    for (const Instr& ins : prog_.instrs)
      handlers_.push_back(Exec::dispatch(
          ins.op, []<TOp OP>() -> Handler { return &Exec::run<OP>; }));
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

template <class Word>
void NativeEngine::broadcast_input(unsigned index, Word word) {
  const Program::Port& port = prog_.inputs.at(index);
  std::uint64_t* const d = rt_.arena() + port.off;
  const unsigned lanes = prog_.lanes;
  std::uint64_t diff = 0;
  // A one-word port is one flat lane loop, which GCC vectorizes; the word
  // loop nested in the lane loop below stays scalar.  The frames
  // histogram's two set_input_u64 writes per 256-lane cycle took 225-353
  // ns with this branch against 651-908 ns through the nested loop alone
  // (Release, pinned, six alternating runs on an AVX-512 VM).
  if (port.words == 1) {
    const std::uint64_t v = word(0);
    for (unsigned l = 0; l < lanes; ++l) diff |= d[l] ^ v;
    if (diff == 0) return;
    std::fill_n(d, lanes, v);
  } else {
    for (unsigned l = 0; l < lanes; ++l)
      for (unsigned w = 0; w < port.words; ++w)
        diff |= d[std::size_t{l} * port.words + w] ^ word(w);
    if (diff == 0) return;
    for (unsigned l = 0; l < lanes; ++l)
      for (unsigned w = 0; w < port.words; ++w)
        d[std::size_t{l} * port.words + w] = word(w);
  }
  rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::set_input(unsigned index, const Bits& value) {
  broadcast_input(index, [&value](unsigned w) { return value.word(w); });
}

void NativeEngine::set_input_u64(unsigned index, std::uint64_t value) {
  const unsigned width = prog_.inputs.at(index).width;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  broadcast_input(index,
                  [value](unsigned w) { return w == 0 ? value : 0; });
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
  std::uint64_t* const sp = samples_.data();
  // Sample first what a commit below could overwrite (the inputs Program's
  // sampling rule flags): all registers and write ports observe the same
  // pre-edge values, as in the interpreter.  Every other input is read in
  // place.
  const auto sample = [&](std::uint32_t off, std::uint32_t at,
                          std::size_t words) {
    if (at != kNoSlot) std::copy_n(ar + off, words * lanes, sp + at);
  };
  for (const Program::Reg& reg : prog_.regs) {
    sample(reg.d, reg.d_at, reg.words);
    sample(reg.en, reg.en_at, 1);
  }
  for (const Program::Mem& pm : prog_.mems)
    for (const Program::WritePort& w : pm.writes) {
      sample(w.addr, w.addr_at, w.addr_words);
      sample(w.data, w.data_at, pm.words);
      sample(w.en, w.en_at, 1);
    }
  const auto src = [&](std::uint32_t off,
                       std::uint32_t at) -> const std::uint64_t* {
    return at == kNoSlot ? ar + off : sp + at;
  };
  // Commit registers.  The single-word enabled case (the common one) is a
  // branchless masked merge over contiguous lanes.
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const Program::Reg& reg = prog_.regs[r];
    std::uint64_t* const q = ar + reg.q;
    const std::uint64_t* const nd = src(reg.d, reg.d_at);
    const std::uint64_t* const en =
        reg.en == kNoSlot ? nullptr : src(reg.en, reg.en_at);
    std::uint64_t diff = 0;
    if (en == nullptr) {
      for (std::size_t i = 0; i < std::size_t{reg.words} * lanes; ++i) {
        diff |= q[i] ^ nd[i];
        q[i] = nd[i];
      }
    } else if (reg.words == 1) {
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t flip = (q[l] ^ nd[l]) & (0 - (en[l] & 1u));
        diff |= flip;
        q[l] ^= flip;
      }
    } else {
      for (unsigned l = 0; l < lanes; ++l) {
        if ((en[l] & 1u) == 0) continue;
        for (std::size_t w = std::size_t{l} * reg.words;
             w < std::size_t{l + 1} * reg.words; ++w) {
          diff |= q[w] ^ nd[w];
          q[w] = nd[w];
        }
      }
    }
    if (diff != 0) rt_.mark(prog_.reg_fl_off, prog_.reg_fl, r);
  }
  // Commit memory writes (port order = declaration order; later ports win).
  for (std::uint32_t mi = 0; mi < prog_.mems.size(); ++mi) {
    const Program::Mem& pm = prog_.mems[mi];
    for (const Program::WritePort& w : pm.writes) {
      const std::uint64_t* const en = src(w.en, w.en_at);
      const std::uint64_t* const ad = src(w.addr, w.addr_at);
      const std::uint64_t* const dt = src(w.data, w.data_at);
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        if ((en[l] & 1u) == 0) continue;
        const std::uint64_t addr = ad[std::size_t{l} * w.addr_words];
        if (addr >= pm.depth) continue;
        std::uint64_t* e = rt_.mem(mi) + (addr * lanes + l) * pm.words;
        const std::uint64_t* s = dt + std::size_t{l} * pm.words;
        for (unsigned k = 0; k < pm.words; ++k) {
          ch |= e[k] ^ s[k];
          e[k] = s[k];
        }
      }
      if (ch != 0) rt_.mark(prog_.mem_fl_off, prog_.mem_fl, mi);
    }
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
