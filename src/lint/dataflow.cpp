#include "lint/dataflow.hpp"

#include <algorithm>

namespace osss::lint {

namespace {

using rtl::kInvalidNode;
using rtl::Module;
using rtl::Node;
using rtl::NodeId;
using rtl::Op;

/// Intersection of two facts about the *same* value (used when a branch
/// guard adds knowledge).  Returns nullopt when the constraints contradict
/// — the branch is unreachable under the current facts.
std::optional<Fact> meet(const Fact& a, const Fact& b) {
  const Bits ones = a.kb.ones | b.kb.ones;
  const Bits zeros = a.kb.zeros | b.kb.zeros;
  if (!(ones & zeros).is_zero()) return std::nullopt;
  Fact f;
  f.kb = KnownBits(zeros, ones);
  if (!a.iv.tracked) {
    f.iv = b.iv;
  } else if (!b.iv.tracked) {
    f.iv = a.iv;
  } else {
    f.iv = Interval(std::max(a.iv.lo, b.iv.lo), std::min(a.iv.hi, b.iv.hi));
    if (f.iv.lo > f.iv.hi) return std::nullopt;
  }
  f.normalize();
  return f;
}

/// Three-valued ripple adder over the known-bits masks: computes the known
/// bits of a + b + carry_in.  Works for any width; O(width).
KnownBits known_add(const KnownBits& a, const KnownBits& b, bool carry_in) {
  const unsigned w = a.width();
  Bits zeros(w), ones(w);
  // carry state: 0 known-0, 1 known-1, 2 unknown
  int carry = carry_in ? 1 : 0;
  for (unsigned i = 0; i < w; ++i) {
    const auto ab = a.bit(i);
    const auto bb = b.bit(i);
    if (ab && bb && carry != 2) {
      const unsigned sum = (*ab ? 1u : 0u) + (*bb ? 1u : 0u) +
                           static_cast<unsigned>(carry);
      if ((sum & 1u) != 0) ones.set_bit(i, true);
      else zeros.set_bit(i, true);
      carry = sum >= 2 ? 1 : 0;
      continue;
    }
    // Sum bit unknown unless... it never is with any operand unknown when
    // the other two are unknown too; with exactly one unknown the sum is
    // unknown but the carry may still be determined (majority function).
    int known_zero_cnt = 0, known_one_cnt = 0, unknown_cnt = 0;
    const auto tally = [&](std::optional<bool> v) {
      if (!v) ++unknown_cnt;
      else if (*v) ++known_one_cnt;
      else ++known_zero_cnt;
    };
    tally(ab);
    tally(bb);
    if (carry == 2) ++unknown_cnt;
    else if (carry == 1) ++known_one_cnt;
    else ++known_zero_cnt;
    // Majority of three: known when two agree.
    if (known_one_cnt >= 2) carry = 1;
    else if (known_zero_cnt >= 2) carry = 0;
    else carry = 2;
  }
  return KnownBits(zeros, ones);
}

/// Shared decision helper for the comparison transfers: nullopt = unknown.
std::optional<bool> decide_ult(const Fact& a, const Fact& b) {
  // Interval evidence (widths <= 64).
  if (a.iv.tracked && b.iv.tracked) {
    if (a.iv.hi < b.iv.lo) return true;
    if (a.iv.lo >= b.iv.hi) return false;
  }
  // Known-bits bounds work at any width: min = ones, max = ~zeros.
  const Bits max_a = ~a.kb.zeros;
  const Bits min_b = b.kb.ones;
  if (Bits::ult(max_a, min_b)) return true;
  const Bits min_a = a.kb.ones;
  const Bits max_b = ~b.kb.zeros;
  if (Bits::ule(max_b, min_a)) return false;
  return std::nullopt;
}

std::optional<bool> decide_ule(const Fact& a, const Fact& b) {
  if (a.iv.tracked && b.iv.tracked) {
    if (a.iv.hi <= b.iv.lo) return true;
    if (a.iv.lo > b.iv.hi) return false;
  }
  if (Bits::ule(~a.kb.zeros, b.kb.ones)) return true;
  if (Bits::ult(~b.kb.zeros, a.kb.ones)) return false;
  return std::nullopt;
}

std::optional<bool> decide_eq(const Fact& a, const Fact& b) {
  // A bit known differently on the two sides refutes equality.
  if (!((a.kb.ones & b.kb.zeros) | (a.kb.zeros & b.kb.ones)).is_zero())
    return false;
  if (a.iv.tracked && b.iv.tracked &&
      (a.iv.hi < b.iv.lo || b.iv.hi < a.iv.lo))
    return false;
  if (a.kb.is_constant() && b.kb.is_constant())
    return a.kb.constant_value() == b.kb.constant_value();
  const auto ca = a.constant();
  const auto cb = b.constant();
  if (ca && cb) return *ca == *cb;
  return std::nullopt;
}

std::optional<bool> decide_slt(const Fact& a, const Fact& b, bool or_equal) {
  const unsigned w = a.width();
  const auto sa = a.kb.bit(w - 1);
  const auto sb = b.kb.bit(w - 1);
  if (sa && sb) {
    if (*sa && !*sb) return true;   // negative < non-negative
    if (!*sa && *sb) return false;  // non-negative >= negative
    // Equal known signs: two's-complement order matches unsigned order.
    return or_equal ? decide_ule(a, b) : decide_ult(a, b);
  }
  return std::nullopt;
}

Fact fact_bool(std::optional<bool> v) {
  if (!v) return Fact::top(1);
  return Fact::constant(Bits(1, *v ? 1u : 0u));
}

/// Abstract sequential iterations before the engine gives up and soundly
/// tops out the registers that are still moving.
constexpr unsigned kMaxIterations = 256;
/// Iterations before interval widening kicks in (known bits never widen).
constexpr unsigned kWidenAfter = 8;
/// Node budget for one branch-constrained mux-arm re-evaluation.
constexpr unsigned kRefineBudget = 192;

class Engine {
 public:
  explicit Engine(const Module& m) : m_(m) {}

  void run() {
    m_.validate();
    order_ = m_.topo_order();
    collect_landmarks();
    val_.assign(m_.node_count(), Fact());
    reg_.clear();
    for (const rtl::Register& r : m_.registers())
      reg_.push_back(Fact::constant(r.init));
    mem_.clear();
    for (const rtl::Memory& mem : m_.memories())
      mem_.push_back(Fact::constant(Bits(mem.data_width)));

    unsigned it = 0;
    bool converged = false;
    for (; it < kMaxIterations; ++it) {
      eval_all();
      if (!commit(/*widen=*/it + 1 >= kWidenAfter, /*force_top=*/false))
        { converged = true; break; }
    }
    if (!converged) {
      // Sound cut-off: top out whatever is still moving (absorbing, so
      // this terminates within #regs + #memories extra rounds).
      const std::size_t cap = reg_.size() + mem_.size() + 2;
      for (std::size_t extra = 0; extra < cap; ++extra) {
        eval_all();
        ++it;
        if (!commit(true, /*force_top=*/true)) {
          converged = true;
          break;
        }
      }
      eval_all();  // facts consistent with the final register state
    }
    iterations_ = it;
    converged_ = converged;
  }

  const Module& m_;
  std::vector<NodeId> order_;
  std::vector<Fact> val_;
  std::vector<Fact> reg_;
  std::vector<Fact> mem_;
  std::vector<std::pair<unsigned, unsigned>> dead_writes_;
  unsigned iterations_ = 0;
  bool converged_ = false;

 private:
  std::vector<std::uint64_t> landmarks_;  ///< widening thresholds, sorted

  /// Constants the design compares against (and memory depths) make the
  /// natural resting points of counter-style invariants: widening jumps
  /// interval bounds to the next landmark instead of straight to top, so
  /// "count <= kStretch" style bounds survive the sequential fixpoint.
  void collect_landmarks() {
    const auto add = [&](std::uint64_t v) {
      if (v > 0) landmarks_.push_back(v - 1);
      landmarks_.push_back(v);
      landmarks_.push_back(v + 1);
    };
    for (NodeId id = 0; id < m_.node_count(); ++id) {
      const Node& n = m_.node(id);
      switch (n.op) {
        case Op::kUlt:
        case Op::kUle:
        case Op::kEq:
        case Op::kNe:
          for (const NodeId in : n.ins) {
            const Node& c = m_.node(in);
            if (c.op == Op::kConst && c.width <= 64) add(c.value.to_u64());
          }
          break;
        default:
          break;
      }
    }
    for (const rtl::Memory& mem : m_.memories()) add(mem.depth);
    std::sort(landmarks_.begin(), landmarks_.end());
    landmarks_.erase(std::unique(landmarks_.begin(), landmarks_.end()),
                     landmarks_.end());
    if (landmarks_.size() > 128) landmarks_.resize(128);
  }

  /// Threshold widening: a growing bound jumps to the nearest landmark
  /// (top when none is left).  Bounds that did not grow stay put.
  Interval widen_iv(const Interval& oldv, const Interval& newv,
                    unsigned width) const {
    if (!newv.tracked || !oldv.tracked) return newv;
    std::uint64_t lo = newv.lo;
    std::uint64_t hi = newv.hi;
    if (newv.lo < oldv.lo) {
      lo = 0;
      const auto it = std::upper_bound(landmarks_.begin(), landmarks_.end(),
                                       newv.lo);
      if (it != landmarks_.begin()) lo = *std::prev(it);
    }
    if (newv.hi > oldv.hi) {
      hi = Interval::mask_of(width);
      const auto it = std::lower_bound(landmarks_.begin(), landmarks_.end(),
                                       newv.hi);
      if (it != landmarks_.end() && *it <= hi) hi = *it;
    }
    return Interval(lo, hi);
  }

  // --- refined (branch-constrained) evaluation ---------------------------
  // One assumption at a time: node `assume_on_` holds fact `assumed_`.
  NodeId assume_on_ = kInvalidNode;
  Fact assumed_;
  std::unordered_map<NodeId, Fact> refine_memo_;
  std::unordered_map<NodeId, bool> depends_memo_;
  unsigned refine_nodes_ = 0;
  bool refine_overflow_ = false;

  void eval_all() {
    for (const NodeId id : order_) val_[id] = transfer(id, /*refined=*/false);
  }

  /// One abstract clock edge; returns true when any register or memory
  /// fact changed.  With force_top, changing facts jump straight to top.
  bool commit(bool widen, bool force_top) {
    bool changed = false;
    std::vector<Fact> next(reg_.size());
    for (std::size_t i = 0; i < reg_.size(); ++i) {
      const rtl::Register& r = m_.registers()[i];
      const Fact& d = val_[r.d];
      Fact incoming;
      if (r.enable == kInvalidNode) {
        incoming = d;
      } else {
        const auto en = val_[r.enable].kb.bit(0);
        if (en.has_value() && *en) incoming = d;
        else if (en.has_value()) incoming = reg_[i];
        else incoming = Fact::join(d, reg_[i]);
      }
      next[i] = Fact::join(reg_[i], incoming);
      if (next[i] != reg_[i]) {
        if (force_top) next[i] = Fact::top(next[i].width());
        else if (widen && next[i].iv != reg_[i].iv) {
          next[i].iv = widen_iv(reg_[i].iv, next[i].iv, next[i].width());
          next[i].normalize();
        }
        if (next[i] != reg_[i]) changed = true;
      }
    }
    dead_writes_.clear();
    std::vector<Fact> next_mem(mem_.size());
    for (std::size_t mi = 0; mi < mem_.size(); ++mi) {
      const rtl::Memory& mem = m_.memories()[mi];
      next_mem[mi] = mem_[mi];
      for (std::size_t wi = 0; wi < mem.writes.size(); ++wi) {
        const auto& w = mem.writes[wi];
        const auto en = val_[w.enable].kb.bit(0);
        if (en.has_value() && !*en) continue;  // write provably disabled
        // A write whose address is provably beyond the depth never lands
        // (the interpreter drops it) — and is RTL-013's evidence.
        const Fact& addr = val_[w.addr];
        const std::uint64_t addr_min =
            addr.iv.tracked ? addr.iv.lo : addr.kb.ones.to_u64();
        if (addr.width() <= 64 && addr_min >= mem.depth) {
          dead_writes_.emplace_back(static_cast<unsigned>(mi),
                                    static_cast<unsigned>(wi));
          continue;
        }
        next_mem[mi] = Fact::join(next_mem[mi], val_[w.data]);
      }
      if (next_mem[mi] != mem_[mi]) {
        if (force_top) next_mem[mi] = Fact::top(mem.data_width);
        else if (widen && next_mem[mi].iv != mem_[mi].iv) {
          next_mem[mi].iv =
              widen_iv(mem_[mi].iv, next_mem[mi].iv, mem.data_width);
          next_mem[mi].normalize();
        }
        if (next_mem[mi] != mem_[mi]) changed = true;
      }
    }
    reg_ = std::move(next);
    mem_ = std::move(next_mem);
    return changed;
  }

  // --- transfer functions ------------------------------------------------

  const Fact& in_fact(NodeId id, bool refined) {
    if (!refined) return val_[id];
    return refined_fact(id);
  }

  const Fact& refined_fact(NodeId id) {
    if (id == assume_on_) return assumed_;
    const auto it = refine_memo_.find(id);
    if (it != refine_memo_.end()) return it->second;
    if (!depends_on_assumption(id) || refine_overflow_) return val_[id];
    if (++refine_nodes_ > kRefineBudget) {
      refine_overflow_ = true;
      return val_[id];
    }
    Fact f = transfer(id, /*refined=*/true);
    return refine_memo_.emplace(id, std::move(f)).first->second;
  }

  /// Does `id` combinationally depend on the assumed node?  Registers and
  /// memory reads are cut points (their facts are cycle invariants).
  bool depends_on_assumption(NodeId id) {
    if (id == assume_on_) return true;
    const auto it = depends_memo_.find(id);
    if (it != depends_memo_.end()) return it->second;
    const Node& n = m_.node(id);
    bool dep = false;
    if (n.op != Op::kReg && n.op != Op::kMemRead && n.op != Op::kConst &&
        n.op != Op::kInput) {
      for (const NodeId in : n.ins)
        if (depends_on_assumption(in)) {
          dep = true;
          break;
        }
    }
    depends_memo_.emplace(id, dep);
    return dep;
  }

  Fact transfer(NodeId id, bool refined) {
    const Node& n = m_.node(id);
    const unsigned w = n.width;
    const auto in = [&](std::size_t i) -> const Fact& {
      return in_fact(n.ins[i], refined);
    };
    Fact f = Fact::top(w);
    switch (n.op) {
      case Op::kConst: return Fact::constant(n.value);
      case Op::kInput: return Fact::top(w);
      case Op::kReg: return reg_[n.param];
      case Op::kMemRead:
        // Out-of-range reads and never-written rows both read 0.
        return Fact::join(Fact::constant(Bits(w)), mem_[n.param]);

      case Op::kAdd: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        f.kb = known_add(a.kb, b.kb, false);
        if (a.iv.tracked && b.iv.tracked) {
          const unsigned __int128 hi =
              static_cast<unsigned __int128>(a.iv.hi) + b.iv.hi;
          if (hi <= Interval::mask_of(w))
            f.iv = Interval(a.iv.lo + b.iv.lo,
                            static_cast<std::uint64_t>(hi));
        }
        break;
      }
      case Op::kSub: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        // a - b == a + ~b + 1 with ~b swapping the known masks.
        f.kb = known_add(a.kb, KnownBits(b.kb.ones, b.kb.zeros), true);
        if (a.iv.tracked && b.iv.tracked && b.iv.hi <= a.iv.lo)
          f.iv = Interval(a.iv.lo - b.iv.hi, a.iv.hi - b.iv.lo);
        break;
      }
      case Op::kMul: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        if (a.kb.is_constant() && b.kb.is_constant())
          return Fact::constant(a.kb.constant_value() *
                                b.kb.constant_value());
        // Trailing known-zero runs multiply: low (tza + tzb) bits are 0.
        unsigned tza = 0, tzb = 0;
        while (tza < w && a.kb.zeros.bit(tza)) ++tza;
        while (tzb < w && b.kb.zeros.bit(tzb)) ++tzb;
        const unsigned tz = std::min(w, tza + tzb);
        for (unsigned i = 0; i < tz; ++i) f.kb.zeros.set_bit(i, true);
        if (a.iv.tracked && b.iv.tracked) {
          const unsigned __int128 hi =
              static_cast<unsigned __int128>(a.iv.hi) * b.iv.hi;
          if (hi <= Interval::mask_of(w))
            f.iv = Interval(a.iv.lo * b.iv.lo,
                            static_cast<std::uint64_t>(hi));
        }
        break;
      }
      case Op::kAnd: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        f.kb = KnownBits(a.kb.zeros | b.kb.zeros, a.kb.ones & b.kb.ones);
        if (a.iv.tracked && b.iv.tracked)
          f.iv = Interval(0, std::min(a.iv.hi, b.iv.hi));
        break;
      }
      case Op::kOr: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        f.kb = KnownBits(a.kb.zeros & b.kb.zeros, a.kb.ones | b.kb.ones);
        if (a.iv.tracked && b.iv.tracked) {
          // a|b < 2^bitlen(hi_a | hi_b), and >= both los.
          const std::uint64_t m = a.iv.hi | b.iv.hi;
          std::uint64_t cap = Interval::mask_of(w);
          if (m != 0) {
            unsigned bl = 64;
            while (bl > 0 && ((m >> (bl - 1)) & 1u) == 0) --bl;
            if (bl < 64)
              cap = std::min<std::uint64_t>(cap, (1ull << bl) - 1);
          } else {
            cap = 0;
          }
          f.iv = Interval(std::max(a.iv.lo, b.iv.lo), cap);
        }
        break;
      }
      case Op::kXor: {
        const Fact& a = in(0);
        const Fact& b = in(1);
        f.kb = KnownBits((a.kb.zeros & b.kb.zeros) | (a.kb.ones & b.kb.ones),
                         (a.kb.ones & b.kb.zeros) | (a.kb.zeros & b.kb.ones));
        break;
      }
      case Op::kNot: {
        const Fact& a = in(0);
        f.kb = KnownBits(a.kb.ones, a.kb.zeros);
        if (a.iv.tracked) {
          const std::uint64_t mask = Interval::mask_of(w);
          f.iv = Interval(mask - a.iv.hi, mask - a.iv.lo);
        }
        break;
      }
      case Op::kShlI:
      case Op::kLshrI:
      case Op::kAshrI:
        f = shift_const(in(0), n.op, n.param, w);
        break;
      case Op::kShlV:
      case Op::kLshrV: {
        const Fact& a = in(0);
        const Fact& amt = in(1);
        const bool left = n.op == Op::kShlV;
        if (const auto c = amt.constant()) {
          f = shift_const(a, left ? Op::kShlI : Op::kLshrI,
                          rtl::shift_count(*c, w), w);
          break;
        }
        // Variable amount: bound via the amount interval.
        if (amt.iv.tracked) {
          const std::uint64_t alo = amt.iv.lo;
          const std::uint64_t ahi = amt.iv.hi;
          if (alo >= w) return Fact::constant(Bits(w));
          const unsigned lo_shift = static_cast<unsigned>(alo);
          if (left) {
            for (unsigned i = 0; i < lo_shift; ++i)
              f.kb.zeros.set_bit(i, true);
            if (a.iv.tracked && ahi < 64) {
              const unsigned __int128 hi =
                  static_cast<unsigned __int128>(a.iv.hi)
                  << static_cast<unsigned>(ahi);
              if (hi <= Interval::mask_of(w))
                f.iv = Interval(a.iv.lo << lo_shift,
                                static_cast<std::uint64_t>(hi));
            }
          } else {
            for (unsigned i = 0; i < lo_shift; ++i)
              f.kb.zeros.set_bit(w - 1 - i, true);
            if (a.iv.tracked)
              f.iv = Interval(ahi >= w ? 0 : a.iv.lo >> ahi,
                              a.iv.hi >> lo_shift);
          }
        }
        break;
      }
      case Op::kEq: return fact_bool(decide_eq(in(0), in(1)));
      case Op::kNe: {
        auto d = decide_eq(in(0), in(1));
        if (d) d = !*d;
        return fact_bool(d);
      }
      case Op::kUlt: return fact_bool(decide_ult(in(0), in(1)));
      case Op::kUle: return fact_bool(decide_ule(in(0), in(1)));
      case Op::kSlt: return fact_bool(decide_slt(in(0), in(1), false));
      case Op::kSle: return fact_bool(decide_slt(in(0), in(1), true));

      case Op::kMux: return mux_fact(n, refined);

      case Op::kSlice: {
        const Fact& a = in(0);
        f.kb = KnownBits(a.kb.zeros.slice(n.param + w - 1, n.param),
                         a.kb.ones.slice(n.param + w - 1, n.param));
        if (n.param == 0 && a.iv.tracked &&
            a.iv.hi <= Interval::mask_of(w))
          f.iv = Interval(a.iv.lo, a.iv.hi);
        break;
      }
      case Op::kConcat: {
        // ins[0] is the most significant chunk (interpreter convention).
        Bits zeros(w), ones(w);
        unsigned pos = w;
        bool iv_ok = w <= 64;
        std::uint64_t lo = 0, hi = 0;
        for (std::size_t i = 0; i < n.ins.size(); ++i) {
          const Fact& part = in(i);
          pos -= part.width();
          zeros.set_range(pos, part.kb.zeros);
          ones.set_range(pos, part.kb.ones);
          if (iv_ok && part.iv.tracked) {
            lo += part.iv.lo << pos;
            hi += part.iv.hi << pos;
          } else {
            iv_ok = false;
          }
        }
        f.kb = KnownBits(std::move(zeros), std::move(ones));
        if (iv_ok) f.iv = Interval(lo, hi);
        break;
      }
      case Op::kZExt: {
        const Fact& a = in(0);
        const unsigned w0 = a.width();
        f.kb = KnownBits(a.kb.zeros.zext(w), a.kb.ones.zext(w));
        for (unsigned i = w0; i < w; ++i) f.kb.zeros.set_bit(i, true);
        if (w <= 64 && a.iv.tracked) f.iv = Interval(a.iv.lo, a.iv.hi);
        break;
      }
      case Op::kSExt: {
        const Fact& a = in(0);
        const unsigned w0 = a.width();
        f.kb = KnownBits(a.kb.zeros.zext(w), a.kb.ones.zext(w));
        const auto sign = a.kb.bit(w0 - 1);
        if (sign.has_value()) {
          for (unsigned i = w0; i < w; ++i)
            (*sign ? f.kb.ones : f.kb.zeros).set_bit(i, true);
          if (w <= 64 && a.iv.tracked) {
            const std::uint64_t fill =
                *sign ? Interval::mask_of(w) ^ Interval::mask_of(w0) : 0;
            f.iv = Interval(a.iv.lo | fill, a.iv.hi | fill);
          }
        }
        break;
      }
      case Op::kRedOr: {
        const Fact& a = in(0);
        if (!a.kb.ones.is_zero() || (a.iv.tracked && a.iv.lo > 0))
          return Fact::constant(Bits(1, 1));
        if (a.kb.zeros.is_ones() || (a.iv.tracked && a.iv.hi == 0))
          return Fact::constant(Bits(1, 0));
        return Fact::top(1);
      }
      case Op::kRedAnd: {
        const Fact& a = in(0);
        if (!a.kb.zeros.is_zero()) return Fact::constant(Bits(1, 0));
        if (a.kb.ones.is_ones()) return Fact::constant(Bits(1, 1));
        return Fact::top(1);
      }
      case Op::kRedXor: {
        const Fact& a = in(0);
        if (a.kb.is_constant())
          return Fact::constant(Bits(1, a.kb.ones.popcount() & 1u));
        return Fact::top(1);
      }
    }
    f.normalize();
    return f;
  }

  static Fact shift_const(const Fact& a, Op op, unsigned amt, unsigned w) {
    Fact f = Fact::top(w);
    if (op == Op::kShlI) {
      if (amt >= w) return Fact::constant(Bits(w));
      Bits zeros = a.kb.zeros.shl(amt);
      for (unsigned i = 0; i < amt; ++i) zeros.set_bit(i, true);
      f.kb = KnownBits(std::move(zeros), a.kb.ones.shl(amt));
      if (a.iv.tracked && amt < 64) {
        const unsigned __int128 hi = static_cast<unsigned __int128>(a.iv.hi)
                                     << amt;
        if (hi <= Interval::mask_of(w))
          f.iv = Interval(a.iv.lo << amt, static_cast<std::uint64_t>(hi));
      }
    } else if (op == Op::kLshrI) {
      if (amt >= w) return Fact::constant(Bits(w));
      Bits zeros = a.kb.zeros.lshr(amt);
      for (unsigned i = 0; i < amt; ++i) zeros.set_bit(w - 1 - i, true);
      f.kb = KnownBits(std::move(zeros), a.kb.ones.lshr(amt));
      if (a.iv.tracked) f.iv = Interval(a.iv.lo >> amt, a.iv.hi >> amt);
    } else {  // kAshrI: shifted-in bits copy the sign
      const auto sign = a.kb.bit(w - 1);
      if (amt >= w) {
        if (!sign.has_value()) {
          // every bit equals the unknown sign; nothing per-bit to claim
          return Fact::top(w);
        }
        return Fact::constant(*sign ? Bits::ones(w) : Bits(w));
      }
      Bits zeros = a.kb.zeros.lshr(amt);
      Bits ones = a.kb.ones.lshr(amt);
      if (sign.has_value()) {
        Bits& fill = *sign ? ones : zeros;
        for (unsigned i = 0; i < amt; ++i) fill.set_bit(w - 1 - i, true);
      } else {
        for (unsigned i = 0; i < amt; ++i) {
          zeros.set_bit(w - 1 - i, false);
          ones.set_bit(w - 1 - i, false);
        }
      }
      f.kb = KnownBits(std::move(zeros), std::move(ones));
    }
    f.normalize();
    return f;
  }

  // --- mux with branch-constrained arm refinement ------------------------

  Fact mux_fact(const Node& n, bool refined) {
    const Fact& sel = in_fact(n.ins[0], refined);
    const auto sb = sel.kb.bit(0);
    if (sb.has_value())
      return in_fact(*sb ? n.ins[1] : n.ins[2], refined);
    const Fact then_f = in_fact(n.ins[1], refined);
    const Fact else_f = in_fact(n.ins[2], refined);
    if (refined) return Fact::join(then_f, else_f);  // no nested refinement

    // Try to evaluate each arm under the guard's constraint.
    const Fact then_r = arm_fact(n.ins[0], true, n.ins[1], then_f);
    const Fact else_r = arm_fact(n.ins[0], false, n.ins[2], else_f);
    return Fact::join(then_r, else_r);
  }

  /// Fact of `arm` assuming the select node `sel` evaluates to `polarity`.
  /// Falls back to the unconstrained `plain` fact when no constraint can
  /// be extracted or the guard contradicts current facts (the arm is then
  /// unreachable; keeping `plain` only loses precision, never soundness).
  Fact arm_fact(NodeId sel, bool polarity, NodeId arm, const Fact& plain) {
    NodeId on = kInvalidNode;
    Fact constraint;
    if (!extract_constraint(sel, polarity, on, constraint)) return plain;
    const auto refined = meet(val_[on], constraint);
    if (!refined) return plain;  // guard contradicts facts: arm unreachable
    assume_on_ = on;
    assumed_ = *refined;
    refine_memo_.clear();
    depends_memo_.clear();
    refine_nodes_ = 0;
    refine_overflow_ = false;
    Fact f = refined_fact(arm);
    assume_on_ = kInvalidNode;
    refine_memo_.clear();
    depends_memo_.clear();
    // The refined fact must still be joined-compatible; it can only be
    // tighter than plain, but guard against budget-overflow paths having
    // mixed global facts in by meeting with plain (both are sound).
    if (const auto m2 = meet(f, plain)) return *m2;
    return plain;
  }

  /// Recognize a guard shape and produce "node `on` has fact `constraint`"
  /// for the branch where `sel` == polarity.
  bool extract_constraint(NodeId sel, bool polarity, NodeId& on,
                          Fact& constraint) {
    const Node* s = &m_.node(sel);
    while (s->op == Op::kNot) {
      sel = s->ins[0];
      polarity = !polarity;
      s = &m_.node(sel);
    }
    const auto const_side = [&](std::size_t i) -> std::optional<Bits> {
      return val_[s->ins[i]].constant();
    };
    const auto iv_of = [&](NodeId x) { return val_[x].iv; };
    switch (s->op) {
      case Op::kUlt:
      case Op::kUle: {
        const bool ule = s->op == Op::kUle;
        // x OP C or C OP x with C constant and x narrow enough to track.
        for (int side = 0; side < 2; ++side) {
          const auto c = const_side(side == 0 ? 1 : 0);
          const NodeId x = s->ins[side == 0 ? 0 : 1];
          if (!c || c->width() > 64) continue;
          const unsigned xw = m_.node(x).width;
          const std::uint64_t cv = c->to_u64();
          const std::uint64_t mask = Interval::mask_of(xw);
          Interval ivc;
          if (side == 0) {  // x OP C
            if (polarity)
              ivc = ule ? Interval(0, cv)
                        : (cv == 0 ? Interval() : Interval(0, cv - 1));
            else
              ivc = ule ? (cv == mask ? Interval() : Interval(cv + 1, mask))
                        : Interval(cv, mask);
          } else {  // C OP x
            if (polarity)
              ivc = ule ? Interval(cv, mask)
                        : (cv == mask ? Interval() : Interval(cv + 1, mask));
            else
              ivc = ule ? (cv == 0 ? Interval() : Interval(0, cv - 1))
                        : Interval(0, cv);
          }
          if (!ivc.tracked) continue;  // degenerate bound: no information
          on = x;
          constraint = Fact::top(xw);
          constraint.iv = ivc;
          constraint.normalize();
          return true;
        }
        return false;
      }
      case Op::kEq:
      case Op::kNe: {
        const bool eq_true = (s->op == Op::kEq) == polarity;
        for (int side = 0; side < 2; ++side) {
          const auto c = const_side(side == 0 ? 1 : 0);
          const NodeId x = s->ins[side == 0 ? 0 : 1];
          if (!c) continue;
          const unsigned xw = m_.node(x).width;
          if (eq_true) {
            on = x;
            constraint = Fact::constant(*c);
            return true;
          }
          // x != C: only interval-endpoint knowledge.
          if (xw > 64) continue;
          const Interval iv = iv_of(x);
          if (!iv.tracked) continue;
          const std::uint64_t cv = c->to_u64();
          Interval ivc = iv;
          if (cv == iv.lo && iv.lo < iv.hi) ivc.lo = iv.lo + 1;
          else if (cv == iv.hi && iv.lo < iv.hi) ivc.hi = iv.hi - 1;
          else continue;
          on = x;
          constraint = Fact::top(xw);
          constraint.iv = ivc;
          constraint.normalize();
          return true;
        }
        return false;
      }
      case Op::kRedOr: {
        if (polarity) return false;  // x != 0: too weak to bother
        on = s->ins[0];
        constraint = Fact::constant(Bits(m_.node(on).width));
        return true;
      }
      case Op::kRedAnd: {
        if (!polarity) return false;
        on = s->ins[0];
        constraint = Fact::constant(Bits::ones(m_.node(on).width));
        return true;
      }
      default:
        // The select net itself is a 1-bit node used inside the arm.
        if (s->width == 1 && s->op != Op::kConst) {
          on = sel;
          constraint = Fact::constant(Bits(1, polarity ? 1u : 0u));
          return true;
        }
        return false;
    }
  }
};

}  // namespace

std::unordered_map<std::string, bool> FactDB::const_reg_bits() const {
  std::unordered_map<std::string, unsigned> name_count;
  for (const std::string& n : reg_names_) ++name_count[n];
  std::unordered_map<std::string, bool> out;
  for (std::size_t i = 0; i < reg_facts_.size(); ++i) {
    const std::string& name = reg_names_[i];
    if (name.empty() || name_count[name] > 1) continue;
    const Fact& f = reg_facts_[i];
    for (unsigned b = 0; b < f.width(); ++b) {
      const auto v = f.kb.bit(b);
      if (!v.has_value()) continue;
      out.emplace(name + "[" + std::to_string(b) + "]", *v);
    }
  }
  return out;
}

FactDB analyze_dataflow(const rtl::Module& m) {
  Engine engine(m);
  engine.run();
  FactDB db;
  db.node_facts_ = std::move(engine.val_);
  db.reg_facts_ = std::move(engine.reg_);
  for (const rtl::Register& r : m.registers())
    db.reg_names_.push_back(r.name);
  db.dead_writes_ = std::move(engine.dead_writes_);
  db.iterations_ = engine.iterations_;
  db.converged_ = engine.converged_;
  return db;
}

}  // namespace osss::lint
