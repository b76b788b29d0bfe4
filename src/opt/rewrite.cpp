#include "opt/rewrite.hpp"

#include "opt/rebuild.hpp"

namespace osss::opt {

namespace {

/// Fixpoint guard: maximum rebuild iterations per pass run.
constexpr unsigned kMaxIterations = 8;

/// One rewrite iteration: pattern matching is done on the SOURCE netlist
/// (kinds, fanout), emission on the destination via the mapped leaves —
/// every rule expresses the same boolean function of its cut leaves, so the
/// rewrite is correct whatever earlier rules did to the mapped cone.
class Rewriter {
 public:
  explicit Rewriter(const Netlist& src)
      : src_(src), fanout_(gate::fanout_counts(src)) {}

  std::size_t changes() const noexcept { return changes_; }

  NetId emit(Netlist& dst, NetId id, const std::vector<NetId>& ins,
             const std::function<NetId(NetId)>& mapped) {
    const Cell& c = src_.cells()[id];
    NetId out = gate::kInvalidNet;
    switch (c.kind) {
      case CellKind::kAnd2:
        out = rewrite_andor(dst, c, mapped, /*is_and=*/true);
        break;
      case CellKind::kOr2:
        out = rewrite_andor(dst, c, mapped, /*is_and=*/false);
        break;
      case CellKind::kXor2:
        out = rewrite_xor(dst, c, mapped);
        break;
      case CellKind::kInv:
        out = rewrite_inv(dst, c, mapped);
        break;
      case CellKind::kMux2:
        out = rewrite_mux(dst, c, mapped);
        break;
      default:
        break;
    }
    if (out != gate::kInvalidNet) {
      ++changes_;
      return out;
    }
    return emit_default(dst, src_, id, ins);
  }

 private:
  const Netlist& src_;
  std::vector<std::uint32_t> fanout_;
  std::size_t changes_ = 0;

  CellKind kind(NetId n) const { return src_.cells()[n].kind; }
  NetId in(NetId n, std::size_t i) const { return src_.cells()[n].ins[i]; }
  bool fan1(NetId n) const { return fanout_[n] == 1; }
  bool is_inv(NetId n) const { return kind(n) == CellKind::kInv; }

  /// a == complement of b (either direction through a kInv cell)?
  bool complement(NetId a, NetId b) const {
    if (is_inv(a) && in(a, 0) == b) return true;
    if (is_inv(b) && in(b, 0) == a) return true;
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) return true;
    return false;
  }

  /// Emit and2/or2 selected by flag.
  static NetId andor(Netlist& dst, bool is_and, NetId a, NetId b) {
    return is_and ? dst.and2(a, b) : dst.or2(a, b);
  }

  // and2(a, b) and its or2 dual (swap the roles of and/or, 0/1).
  NetId rewrite_andor(Netlist& dst, const Cell& c,
                      const std::function<NetId(NetId)>& mapped, bool is_and) {
    const CellKind same = is_and ? CellKind::kAnd2 : CellKind::kOr2;
    const CellKind dual = is_and ? CellKind::kOr2 : CellKind::kAnd2;
    const NetId absorbing = is_and ? 0 : 1;  // annihilator of the operation
    for (int swap = 0; swap < 2; ++swap) {
      const NetId a = in_of(c, swap != 0 ? 1u : 0u);
      const NetId b = in_of(c, swap != 0 ? 0u : 1u);
      if (kind(b) == dual) {
        // absorption: and(a, or(a, x)) -> a
        if (in(b, 0) == a || in(b, 1) == a) return mapped(a);
        // and(a, or(inv a, x)) -> and(a, x)
        for (int i = 0; i < 2; ++i) {
          if (complement(a, in(b, static_cast<std::size_t>(i))))
            return andor(dst, is_and, mapped(a),
                         mapped(in(b, static_cast<std::size_t>(1 - i))));
        }
      }
      if (kind(b) == same) {
        // and(a, and(a, x)) -> and(a, x)
        if (in(b, 0) == a || in(b, 1) == a) return mapped(b);
        // and(a, and(inv a, x)) -> 0
        if (complement(a, in(b, 0)) || complement(a, in(b, 1)))
          return dst.constant(absorbing != 0);
      }
    }
    const NetId a = c.ins[0];
    const NetId b = c.ins[1];
    // De Morgan contraction: and(inv x, inv y) -> inv(or(x, y)) when both
    // inverters die with the rewrite.
    if (is_inv(a) && is_inv(b) && fan1(a) && fan1(b))
      return dst.inv(andor(dst, !is_and, mapped(in(a, 0)), mapped(in(b, 0))));
    // XOR recognition (or-of-ands form, or2 roots only):
    //   or(and(u1, u2), and(~u1, ~u2)) -> xnor(u1, u2)
    // matched by complement pairing, inverters stripped off the operands.
    if (!is_and && kind(a) == CellKind::kAnd2 && kind(b) == CellKind::kAnd2 &&
        fan1(a) && fan1(b)) {
      const NetId p = in(a, 0), q = in(a, 1);
      const NetId r = in(b, 0), s = in(b, 1);
      for (int pair = 0; pair < 2; ++pair) {
        const NetId v1 = pair != 0 ? s : r;
        const NetId v2 = pair != 0 ? r : s;
        if (!complement(p, v1) || !complement(q, v2)) continue;
        // xnor(p, q), stripping operand inverters (each flips polarity).
        NetId u1 = p, u2 = q;
        bool invert = true;  // xnor
        if (is_inv(u1)) { u1 = in(u1, 0); invert = !invert; }
        if (is_inv(u2)) { u2 = in(u2, 0); invert = !invert; }
        const NetId x = dst.xor2(mapped(u1), mapped(u2));
        return invert ? dst.inv(x) : x;
      }
    }
    // Shared-literal factoring: or(and(a, b), and(a, c)) -> and(a, or(b, c))
    // and its dual and(or(a, b), or(a, c)) -> or(a, and(b, c)) — three cells
    // become two when both inner gates die.
    if (kind(a) == dual && kind(b) == dual && fan1(a) && fan1(b)) {
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
          if (in(a, i) == in(b, j))
            return andor(dst, !is_and, mapped(in(a, i)),
                         andor(dst, is_and, mapped(in(a, 1 - i)),
                               mapped(in(b, 1 - j))));
    }
    return gate::kInvalidNet;
  }

  // xor2(a, b): xor(a, xor(a, x)) -> x.
  NetId rewrite_xor(Netlist& dst, const Cell& c,
                    const std::function<NetId(NetId)>& mapped) {
    for (int swap = 0; swap < 2; ++swap) {
      const NetId a = in_of(c, swap != 0 ? 1u : 0u);
      const NetId b = in_of(c, swap != 0 ? 0u : 1u);
      if (kind(b) == CellKind::kXor2) {
        if (in(b, 0) == a) return mapped(in(b, 1));
        if (in(b, 1) == a) return mapped(in(b, 0));
      }
    }
    const NetId a = c.ins[0];
    const NetId b = c.ins[1];
    // xor(inv x, inv y) -> xor(x, y): the inversions cancel.  Never worse
    // even when the inverters have other readers, so no fanout gate.
    if (is_inv(a) && is_inv(b))
      return dst.xor2(mapped(in(a, 0)), mapped(in(b, 0)));
    // Shared-literal factoring: xor(and(a, b), and(a, c)) -> and(a,
    // xor(b, c)), since a & b ^ a & c == a & (b ^ c).
    if (kind(a) == CellKind::kAnd2 && kind(b) == CellKind::kAnd2 && fan1(a) &&
        fan1(b)) {
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
          if (in(a, i) == in(b, j))
            return dst.and2(mapped(in(a, i)),
                            dst.xor2(mapped(in(a, 1 - i)),
                                     mapped(in(b, 1 - j))));
    }
    return gate::kInvalidNet;
  }

  // inv(a): De Morgan expansion inv(and(inv x, inv y)) -> or(x, y).
  NetId rewrite_inv(Netlist& dst, const Cell& c,
                    const std::function<NetId(NetId)>& mapped) {
    const NetId a = c.ins[0];
    const bool is_and = kind(a) == CellKind::kAnd2;
    const bool is_or = kind(a) == CellKind::kOr2;
    if ((is_and || is_or) && fan1(a) && is_inv(in(a, 0)) && is_inv(in(a, 1)))
      return andor(dst, !is_and, mapped(in(in(a, 0), 0)),
                   mapped(in(in(a, 1), 0)));
    return gate::kInvalidNet;
  }

  // mux2(s, t, e).
  NetId rewrite_mux(Netlist& dst, const Cell& c,
                    const std::function<NetId(NetId)>& mapped) {
    const NetId s = c.ins[0], t = c.ins[1], e = c.ins[2];
    // XOR recognition: mux(s, inv e, e) -> xor(s, e);
    //                  mux(s, t, inv t) -> xnor(s, t).
    if (complement(t, e)) {
      if (is_inv(t) && in(t, 0) == e)
        return dst.xor2(mapped(s), mapped(e));
      return dst.inv(dst.xor2(mapped(s), mapped(t)));
    }
    // Inverter push: mux(s, inv x, inv y) -> inv(mux(s, x, y)).
    if (is_inv(t) && is_inv(e) && fan1(t) && fan1(e))
      return dst.inv(dst.mux2(mapped(s), mapped(in(t, 0)), mapped(in(e, 0))));
    // MUX push-through: mux(s, f(a, c), f(b, c)) -> f(mux(s, a, b), c).
    if (kind(t) == kind(e) && fan1(t) && fan1(e) &&
        (kind(t) == CellKind::kAnd2 || kind(t) == CellKind::kOr2 ||
         kind(t) == CellKind::kXor2)) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          const NetId shared = in(t, static_cast<std::size_t>(i));
          if (shared != in(e, static_cast<std::size_t>(j))) continue;
          const NetId mt = mapped(in(t, static_cast<std::size_t>(1 - i)));
          const NetId me = mapped(in(e, static_cast<std::size_t>(1 - j)));
          const NetId m = dst.mux2(mapped(s), mt, me);
          switch (kind(t)) {
            case CellKind::kAnd2: return dst.and2(m, mapped(shared));
            case CellKind::kOr2: return dst.or2(m, mapped(shared));
            default: return dst.xor2(m, mapped(shared));
          }
        }
      }
    }
    // Nested-mux select merging (the then-side forms the factory's
    // absorption rule does not cover):
    //   mux(s1, mux(s2, tt, e), e) -> mux(and(s1, s2), tt, e)
    //   mux(s1, mux(s2, e, tt), e) -> mux(and(s1, inv s2), tt, e)
    //   mux(s1, t, mux(s2, ee, t)) -> mux(and(inv s1, s2), ee, t)
    if (kind(t) == CellKind::kMux2 && fan1(t)) {
      if (in(t, 2) == e)
        return dst.mux2(dst.and2(mapped(s), mapped(in(t, 0))),
                        mapped(in(t, 1)), mapped(e));
      if (in(t, 1) == e)
        return dst.mux2(dst.and2(mapped(s), dst.inv(mapped(in(t, 0)))),
                        mapped(in(t, 2)), mapped(e));
    }
    if (kind(e) == CellKind::kMux2 && fan1(e) && in(e, 2) == t)
      return dst.mux2(dst.and2(dst.inv(mapped(s)), mapped(in(e, 0))),
                      mapped(in(e, 1)), mapped(t));
    return gate::kInvalidNet;
  }

  NetId in_of(const Cell& c, std::size_t i) const { return c.ins[i]; }
};

}  // namespace

gate::Netlist RewritePass::run(const gate::Netlist& in,
                               PassStats& stats) const {
  gate::Netlist current = in;
  for (unsigned iter = 0; iter < kMaxIterations; ++iter) {
    Rewriter rw(current);
    RebuildHooks hooks;
    hooks.emit = [&](Netlist& dst, NetId id, const std::vector<NetId>& ins,
                     const std::function<NetId(NetId)>& mapped) {
      return rw.emit(dst, id, ins, mapped);
    };
    gate::Netlist next = rebuild(current, hooks);
    stats.changes += rw.changes();
    const bool progressed = rw.changes() != 0;
    current = std::move(next);
    if (!progressed) break;
  }
  return current;
}

}  // namespace osss::opt
