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
#include <cstring>
#include <stdexcept>
#include <utility>

#include "jit/jit.hpp"
#include "par/batch.hpp"
#include "rtl/tape_detail.hpp"

namespace osss::rtl::tape {

using detail::bits_from_words;
using detail::load_word;
using detail::mask64;
using detail::shift_amount;
using detail::span_fill;
using detail::span_lshr;
using detail::span_shl;
using detail::store_word;
using detail::storeN;
using detail::top_mask;
using detail::with_class;
using detail::words_of;

// --- the per-lane definitions and the one opcode dispatch ------------------

struct NativeEngine::Exec {
  /// The value single-word opcode OP stores in lane `l` of its destination.
  /// Operand x of that lane is one class-aware load (load_word: the slot's
  /// lane word at x + (l << class), masked to the class), except a
  /// variable shift's amount when it spans aw > 1 words.  Both interpreted
  /// evaluators compute their single-word results here.
  template <TOp OP>
  static std::uint64_t lane1(const Instr& ins, const std::uint64_t* ar,
                             unsigned l) {
    const auto* const by = reinterpret_cast<const unsigned char*>(ar);
    const auto at = [by, l](std::uint32_t off, unsigned c) {
      return load_word(by, off, c, 1, l);
    };
    const std::uint64_t a = at(ins.a, ins.ac);
    const auto b = [&] { return at(ins.b, ins.bc); };
    if constexpr (OP == TOp::kAdd1) return (a + b()) & ins.mask;
    else if constexpr (OP == TOp::kSub1) return (a - b()) & ins.mask;
    else if constexpr (OP == TOp::kMul1) return (a * b()) & ins.mask;
    else if constexpr (OP == TOp::kAnd1) return a & b();
    else if constexpr (OP == TOp::kOr1) return a | b();
    else if constexpr (OP == TOp::kXor1) return a ^ b();
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
          ins.aw == 1 ? b()
                      : shift_amount(ar + ins.b / 8 + std::size_t{l} * ins.aw,
                                     ins.aw);
      if (amt >= ins.width) return 0;
      return OP == TOp::kShlV1 ? (a << amt) & ins.mask : a >> amt;
    } else if constexpr (OP == TOp::kEq1) return a == b();
    else if constexpr (OP == TOp::kNe1) return a != b();
    else if constexpr (OP == TOp::kUlt1) return a < b();
    else if constexpr (OP == TOp::kUle1) return a <= b();
    else if constexpr (OP == TOp::kSlt1 || OP == TOp::kSle1) {
      const unsigned sh = 64 - ins.a_width;
      const auto x = static_cast<std::int64_t>(a << sh);
      const auto y = static_cast<std::int64_t>(b() << sh);
      return OP == TOp::kSlt1 ? x < y : x <= y;
    } else if constexpr (OP == TOp::kMux1) {
      return (a & 1u) != 0 ? b() : at(ins.c, ins.cc);
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
      auto* const by = reinterpret_cast<unsigned char*>(ar);
      bool ch = false;
      for (unsigned l = 0; l < lanes; ++l)
        ch |= store_word(by, ins.dst, ins.dc, 1, l, lane1<OP>(ins, ar, l));
      return ch;
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
  /// scratch words `s`: the engine's one multi-word implementation.  An
  /// operand reads as u64 words: in place for a u64-class slot, else its
  /// one masked lane word staged in a local; the result goes through one
  /// class-aware store.
  template <TOp OP>
  static bool run_wide(NativeEngine& e, const Instr& ins, unsigned lane,
                       std::uint64_t* s) {
    std::uint64_t* const ar = e.rt_.arena();
    auto* const by = reinterpret_cast<unsigned char*>(ar);
    std::uint64_t ta = 0, tb = 0;
    const auto in = [&](std::uint32_t off, unsigned c, unsigned words,
                        std::uint64_t& tmp) -> const std::uint64_t* {
      if (c == 3) return ar + off / 8 + std::size_t{lane} * words;
      tmp = load_word(by, off, c, 1, lane);
      return &tmp;
    };
    const auto out = [&](const std::uint64_t* r) {
      if (ins.dc == 3)
        return storeN(ar + ins.dst / 8 + std::size_t{lane} * ins.dw, r,
                      ins.dw);
      return store_word(by, ins.dst, ins.dc, 1, lane, r[0]);
    };
    const auto out1 = [&](std::uint64_t v) { return out(&v); };

    if constexpr (OP == TOp::kCopyN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      return out(s);
    } else if constexpr (OP == TOp::kAddN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.dw, tb);
      std::uint64_t carry = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] + carry;
        const std::uint64_t c1 = t < carry ? 1u : 0u;
        s[w] = t + b[w];
        carry = c1 | (s[w] < b[w] ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kSubN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.dw, tb);
      std::uint64_t borrow = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] - b[w];
        const std::uint64_t b1 = a[w] < b[w] ? 1u : 0u;
        s[w] = t - borrow;
        borrow = b1 | (t < borrow ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kMulN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.dw, tb);
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
      return out(s);
    } else if constexpr (OP == TOp::kAndN || OP == TOp::kOrN ||
                         OP == TOp::kXorN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.dw, tb);
      for (unsigned w = 0; w < ins.dw; ++w) {
        if constexpr (OP == TOp::kAndN) s[w] = a[w] & b[w];
        else if constexpr (OP == TOp::kOrN) s[w] = a[w] | b[w];
        else s[w] = a[w] ^ b[w];
      }
      return out(s);
    } else if constexpr (OP == TOp::kNotN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = ~a[w];
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kShlIN) {
      span_shl(s, in(ins.a, ins.ac, ins.dw, ta), ins.dw, ins.param);
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kLshrIN) {
      span_lshr(s, in(ins.a, ins.ac, ins.dw, ta), ins.dw, ins.param);
      return out(s);
    } else if constexpr (OP == TOp::kAshrIN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const unsigned w = ins.width;
      const bool sign = ((a[(w - 1) / 64] >> ((w - 1) % 64)) & 1u) != 0;
      if (ins.param >= w) {
        for (unsigned i = 0; i < ins.dw; ++i) s[i] = sign ? ~0ull : 0;
      } else {
        span_lshr(s, a, ins.dw, ins.param);
        if (sign && ins.param > 0) span_fill(s, w - ins.param, w);
      }
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kShlVN || OP == TOp::kLshrVN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.dw, ta);
      const std::uint64_t amt =
          shift_amount(in(ins.b, ins.bc, ins.aw, tb), ins.aw);
      if (amt >= ins.width) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      } else if (OP == TOp::kShlVN) {
        span_shl(s, a, ins.dw, static_cast<unsigned>(amt));
        s[ins.dw - 1] &= ins.mask;
      } else {
        span_lshr(s, a, ins.dw, static_cast<unsigned>(amt));
      }
      return out(s);
    } else if constexpr (OP == TOp::kEqN || OP == TOp::kNeN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.aw, tb);
      std::uint64_t diff = 0;
      for (unsigned w = 0; w < ins.aw; ++w) diff |= a[w] ^ b[w];
      const bool r = OP == TOp::kEqN ? diff == 0 : diff != 0;
      return out1(r ? 1u : 0u);
    } else if constexpr (OP == TOp::kUltN || OP == TOp::kUleN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.aw, tb);
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return out1(a[w] < b[w] ? 1u : 0u);
      return out1(OP == TOp::kUleN ? 1u : 0u);
    } else if constexpr (OP == TOp::kSltN || OP == TOp::kSleN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      const std::uint64_t* b = in(ins.b, ins.bc, ins.aw, tb);
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      const bool sa = ((a[sw] >> sb) & 1u) != 0;
      const bool sbit = ((b[sw] >> sb) & 1u) != 0;
      if (sa != sbit) return out1(sa ? 1u : 0u);
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return out1(a[w] < b[w] ? 1u : 0u);
      return out1(OP == TOp::kSleN ? 1u : 0u);
    } else if constexpr (OP == TOp::kMuxN) {
      const bool sel = (load_word(by, ins.a, ins.ac, 1, lane) & 1u) != 0;
      return out(sel ? in(ins.b, ins.bc, ins.dw, tb)
                     : in(ins.c, ins.cc, ins.dw, tb));
    } else if constexpr (OP == TOp::kSliceN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      for (unsigned j = 0; j < ins.dw; ++j) {
        const unsigned bitpos = ins.param + j * 64;
        const unsigned ws = bitpos / 64, bs = bitpos % 64;
        std::uint64_t v = ws < ins.aw ? a[ws] >> bs : 0;
        if (bs != 0 && ws + 1 < ins.aw) v |= a[ws + 1] << (64 - bs);
        s[j] = v;
      }
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kSExtN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      if (((a[sw] >> sb) & 1u) != 0) span_fill(s, ins.a_width, ins.width);
      s[ins.dw - 1] &= ins.mask;
      return out(s);
    } else if constexpr (OP == TOp::kRedOrN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      std::uint64_t any = 0;
      for (unsigned w = 0; w < ins.aw; ++w) any |= a[w];
      return out1(any != 0 ? 1u : 0u);
    } else if constexpr (OP == TOp::kRedAndN) {
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      bool all = true;
      for (unsigned w = 0; w + 1 < ins.aw; ++w) all &= a[w] == ~0ull;
      all &= a[ins.aw - 1] == top_mask(ins.a_width);
      return out1(all ? 1u : 0u);
    } else if constexpr (OP == TOp::kRedXorN) {
      // Parity by XOR-folding: the words into one, then its halves (no
      // popcount, which is a libgcc call without -mpopcnt).
      const std::uint64_t* a = in(ins.a, ins.ac, ins.aw, ta);
      std::uint64_t x = 0;
      for (unsigned w = 0; w < ins.aw; ++w) x ^= a[w];
      for (unsigned sh = 32; sh != 0; sh /= 2) x ^= x >> sh;
      return out1(x & 1u);
    } else if constexpr (OP == TOp::kConcat) {
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      unsigned pos = 0;
      for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
        const ConcatPart& part = e.prog_.parts[ins.param + pi];
        const std::uint64_t* src = in(part.off, part.cls, part.words, ta);
        const unsigned wo = pos / 64, bo = pos % 64;
        for (unsigned w = 0; w < part.words; ++w) {
          s[wo + w] |= src[w] << bo;
          if (bo != 0 && wo + w + 1 < ins.dw)
            s[wo + w + 1] |= src[w] >> (64 - bo);
        }
        pos += part.width;
      }
      return out(s);
    } else {
      static_assert(OP == TOp::kMemRead, "run_wide computes multi-word ops");
      const Program::Mem& pm = e.prog_.mems[ins.param];
      const std::uint64_t addr = in(ins.a, ins.ac, ins.aw, ta)[0];
      if (addr >= pm.depth) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
        return out(s);
      }
      return out(e.rt_.mem(ins.param) +
                 (addr * e.prog_.lanes + lane) * pm.words);
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
  std::uint64_t* s = scratch_.data();
  return Exec::dispatch(ins.op, [&]<TOp OP>() {
    if constexpr (single_word(OP))
      return store_word(reinterpret_cast<unsigned char*>(ar), ins.dst, ins.dc,
                        1, lane, Exec::lane1<OP>(ins, ar, lane));
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

/// Buffer words for `bytes` bytes of slots plus the tail padding of the
/// masked lane loads.
std::size_t padded_words(std::size_t bytes) {
  return (bytes + kArenaPad + 7) / 8;
}

}  // namespace

NativeEngine::NativeEngine(const Module& m, unsigned lanes, CodegenOptions opt,
                           Evaluator ev)
    : prog_(Program::compile(m, checked_lanes(lanes, ev))),
      ev_(ev),
      lw_((prog_.lanes + 63) / 64),
      rt_(padded_words(prog_.arena_bytes), prog_.stats.levels) {
  for (const Program::Mem& pm : prog_.mems)
    rt_.add_memory(std::size_t{pm.depth} * pm.words * prog_.lanes);
  for (const auto& [off, v] : prog_.const_init)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(off, class_of(v.width()),
                      static_cast<std::uint16_t>(words_of(v.width())), l, v);
  std::uint16_t max_dw = 1;
  for (const Instr& ins : prog_.instrs)
    max_dw = std::max<std::uint16_t>(max_dw, ins.dw);
  scratch_.assign(max_dw, 0);
  samples_.assign(padded_words(prog_.sample_bytes), 0);
  for (const auto& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.qc, reg.words, l, reg.init);

  if (ev_ == Evaluator::kCompiled) {
    handlers_.reserve(prog_.instrs.size());
    for (const Instr& ins : prog_.instrs)
      handlers_.push_back(Exec::dispatch(
          ins.op, []<TOp OP>() -> Handler { return &Exec::run<OP>; }));
    rt_.bind([this] { return emit_cpp(prog_); }, std::move(opt),
             {"osss_tape", kTapeAbi, prog_.lanes, "arena", prog_.arena_bytes,
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

unsigned char* NativeEngine::bytes() noexcept {
  return reinterpret_cast<unsigned char*>(rt_.arena());
}

void NativeEngine::write_lane_bits(std::uint32_t off, std::uint8_t cls,
                                   std::uint16_t words, unsigned lane,
                                   const Bits& value) {
  for (unsigned w = 0; w < words; ++w)
    store_word(bytes(), off, cls, words, lane, value.word(w), w);
}

Bits NativeEngine::read_lane_bits(std::uint32_t off, std::uint8_t cls,
                                  std::uint16_t words, unsigned width,
                                  unsigned lane) const {
  // A u64-class slot is read in place (it may span many words); a narrower
  // one is one masked lane word.
  if (cls == 3)
    return bits_from_words(rt_.arena() + off / 8 + std::size_t{lane} * words,
                           width);
  const std::uint64_t v = load_word(
      reinterpret_cast<const unsigned char*>(rt_.arena()), off, cls, 1, lane);
  return bits_from_words(&v, width);
}

template <class Word>
void NativeEngine::broadcast_input(unsigned index, Word word) {
  const Program::Port& port = prog_.inputs.at(index);
  unsigned char* const d = bytes() + port.off;
  const unsigned lanes = prog_.lanes;
  bool changed = false;
  // A one-word port is one flat lane loop in its class, which GCC
  // vectorizes; the word loop nested in the lane loop below stays scalar.
  // The frames histogram's two set_input_u64 writes per 256-lane cycle
  // took 225-353 ns with this branch against 651-908 ns through the nested
  // loop alone (Release, pinned, six alternating runs on an AVX-512 VM).
  // The loop stores as it compares: a separate fill loop of a byte class
  // became a memset call, which cost a one-lane set_input_u64 ~4 ns.
  if (port.words == 1) {
    changed = with_class(port.cls, [&]<class T>() {
      const T v = static_cast<T>(word(0));
      T diff = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        unsigned char* const p = d + std::size_t{l} * sizeof(T);
        T o;
        std::memcpy(&o, p, sizeof o);
        diff |= o ^ v;
        std::memcpy(p, &v, sizeof v);
      }
      return diff != 0;
    });
  } else {
    auto* const q = reinterpret_cast<std::uint64_t*>(d);
    std::uint64_t diff = 0;
    for (unsigned l = 0; l < lanes; ++l)
      for (unsigned w = 0; w < port.words; ++w)
        diff |= q[std::size_t{l} * port.words + w] ^ word(w);
    changed = diff != 0;
    if (changed)
      for (unsigned l = 0; l < lanes; ++l)
        for (unsigned w = 0; w < port.words; ++w)
          q[std::size_t{l} * port.words + w] = word(w);
  }
  if (changed) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
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

namespace {

/// Stores values[l] as lane l of the one-word class-T slot at d, for `n`
/// lanes; true when any lane changed.  The conversion to the port's class
/// happens here, at the port boundary.
template <class T>
bool store_values(unsigned char* d, const std::uint64_t* values, unsigned n,
                  std::uint64_t mask) {
  T diff = 0;
  for (unsigned l = 0; l < n; ++l) {
    const T nv = static_cast<T>(values[l] & mask);
    T o;
    std::memcpy(&o, d + std::size_t{l} * sizeof(T), sizeof o);
    diff |= o ^ nv;
    std::memcpy(d + std::size_t{l} * sizeof(T), &nv, sizeof nv);
  }
  return diff != 0;
}

/// The `n` lanes of the one-word class-T slot at s as u64 values.
template <class T>
void load_values(const unsigned char* s, unsigned n, std::uint64_t* out) {
  for (unsigned l = 0; l < n; ++l) {
    T v;
    std::memcpy(&v, s + std::size_t{l} * sizeof(T), sizeof v);
    out[l] = v;
  }
}

}  // namespace

void NativeEngine::set_input_lanes(unsigned index,
                                   std::span<const std::uint64_t> bit_lanes) {
  const Program::Port& port = prog_.inputs.at(index);
  if (bit_lanes.size() != std::size_t{port.width} * lw_)
    throw std::logic_error("tape engine: set_input_lanes width mismatch");
  // One 64-bit column of the port at a time: word w of every lane.
  std::uint64_t nv[tape::kMaxLanes];
  bool changed = false;
  for (unsigned w = 0; w < port.words; ++w) {
    par::lane_words_to_values(bit_lanes.data() + std::size_t{w} * 64 * lw_,
                              prog_.lanes, std::min(64u, port.width - w * 64),
                              nv, 1);
    if (port.words == 1) {
      changed |= with_class(port.cls, [&]<class T>() {
        return store_values<T>(bytes() + port.off, nv, prog_.lanes, ~0ull);
      });
    } else {
      for (unsigned l = 0; l < prog_.lanes; ++l)
        changed |= store_word(bytes(), port.off, 3, port.words, l, nv[l], w);
    }
  }
  if (changed) rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
}

void NativeEngine::set_input_values(unsigned index,
                                    std::span<const std::uint64_t> values) {
  const Program::Port& port = prog_.inputs.at(index);
  if (port.words != 1)
    throw std::logic_error(
        "tape engine: set_input_values needs a <= 64-bit port");
  if (values.size() != prog_.lanes)
    throw std::logic_error("tape engine: set_input_values lane count mismatch");
  const std::uint64_t mask = mask64(port.width);
  if (with_class(port.cls, [&]<class T>() {
        return store_values<T>(bytes() + port.off, values.data(), prog_.lanes,
                               mask);
      }))
    rt_.mark(prog_.input_fl_off, prog_.input_fl, index);
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
  return read_lane_bits(port.off, port.cls, port.words, port.width, lane);
}

std::uint64_t NativeEngine::output_u64(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  return load_word(bytes(), port.off, port.cls, port.words, 0);
}

std::vector<std::uint64_t> NativeEngine::output_words(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  std::vector<std::uint64_t> out(std::size_t{port.width} * lw_);
  std::uint64_t v[tape::kMaxLanes];
  for (unsigned w = 0; w < port.words; ++w) {
    if (port.words == 1) {
      with_class(port.cls, [&]<class T>() {
        load_values<T>(bytes() + port.off, prog_.lanes, v);
      });
    } else {
      for (unsigned l = 0; l < prog_.lanes; ++l)
        v[l] = load_word(bytes(), port.off, 3, port.words, l, w);
    }
    par::values_to_lane_words(v, 1, prog_.lanes,
                              std::min(64u, port.width - w * 64),
                              out.data() + std::size_t{w} * 64 * lw_);
  }
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_values(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  if (port.words != 1)
    throw std::logic_error("tape engine: output_values needs a <= 64-bit port");
  std::vector<std::uint64_t> out(prog_.lanes);
  with_class(port.cls, [&]<class T>() {
    load_values<T>(bytes() + port.off, prog_.lanes, out.data());
  });
  return out;
}

Bits NativeEngine::node_value(NodeId id, unsigned lane) {
  check_lane(lane);
  eval();
  if (id >= prog_.node_slot.size() || prog_.node_slot[id] == kNoSlot)
    throw std::logic_error(
        "tape engine: node was pruned or folded away (no arena slot)");
  const unsigned width = prog_.node_width[id];
  return read_lane_bits(prog_.node_slot[id], prog_.node_cls[id],
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
  unsigned char* const ar = bytes();
  auto* const sp = reinterpret_cast<unsigned char*>(samples_.data());
  // Sample first what a commit below could overwrite (the inputs Program's
  // sampling rule flags): all registers and write ports observe the same
  // pre-edge values, as in the interpreter.  Every other input is read in
  // place.  A sample keeps its slot's class and lane striding.
  const auto sample = [&](std::uint32_t off, std::uint32_t at,
                          std::size_t words, std::uint8_t cls) {
    if (at != kNoSlot) std::memcpy(sp + at, ar + off, (words << cls) * lanes);
  };
  for (const Program::Reg& reg : prog_.regs) {
    sample(reg.d, reg.d_at, reg.words, reg.dc);
    sample(reg.en, reg.en_at, 1, reg.ec);
  }
  for (const Program::Mem& pm : prog_.mems)
    for (const Program::WritePort& w : pm.writes) {
      sample(w.addr, w.addr_at, w.addr_words, w.ac);
      sample(w.data, w.data_at, pm.words, w.dc);
      sample(w.en, w.en_at, 1, w.ec);
    }
  // Where a commit reads an input: its sample, else the arena.
  const auto src = [&](std::uint32_t off, std::uint32_t at) {
    return at == kNoSlot ? std::pair{ar, off} : std::pair{sp, at};
  };
  // Commit registers: lane by lane, each word through one class-aware load
  // and store.
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const Program::Reg& reg = prog_.regs[r];
    const auto [nb, noff] = src(reg.d, reg.d_at);
    const auto [eb, eoff] =
        reg.en == kNoSlot ? std::pair{ar, kNoSlot} : src(reg.en, reg.en_at);
    bool changed = false;
    for (unsigned l = 0; l < lanes; ++l) {
      if (eoff != kNoSlot && (load_word(eb, eoff, reg.ec, 1, l) & 1u) == 0)
        continue;
      for (unsigned w = 0; w < reg.words; ++w)
        changed |= store_word(ar, reg.q, reg.qc, reg.words, l,
                              load_word(nb, noff, reg.dc, reg.words, l, w), w);
    }
    if (changed) rt_.mark(prog_.reg_fl_off, prog_.reg_fl, r);
  }
  // Commit memory writes (port order = declaration order; later ports win).
  for (std::uint32_t mi = 0; mi < prog_.mems.size(); ++mi) {
    const Program::Mem& pm = prog_.mems[mi];
    for (const Program::WritePort& w : pm.writes) {
      const auto [eb, eoff] = src(w.en, w.en_at);
      const auto [ab, aoff] = src(w.addr, w.addr_at);
      const auto [db, doff] = src(w.data, w.data_at);
      std::uint64_t ch = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        if ((load_word(eb, eoff, w.ec, 1, l) & 1u) == 0) continue;
        const std::uint64_t addr =
            load_word(ab, aoff, w.ac, w.addr_words, l);
        if (addr >= pm.depth) continue;
        std::uint64_t* e = rt_.mem(mi) + (addr * lanes + l) * pm.words;
        for (unsigned k = 0; k < pm.words; ++k) {
          const std::uint64_t v = load_word(db, doff, w.dc, pm.words, l, k);
          ch |= e[k] ^ v;
          e[k] = v;
        }
      }
      if (ch != 0) rt_.mark(prog_.mem_fl_off, prog_.mem_fl, mi);
    }
  }
}

void NativeEngine::reset() {
  for (const Program::Reg& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.qc, reg.words, l, reg.init);
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
    write_lane_bits(reg.q, reg.qc, reg.words, l, value);
  rt_.mark(prog_.reg_fl_off, prog_.reg_fl, reg_index);
}

}  // namespace osss::rtl::tape
