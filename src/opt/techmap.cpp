#include "opt/techmap.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "gate/timing.hpp"
#include "opt/rebuild.hpp"

namespace osss::opt {

namespace {

/// Cells explored per cut cone.
constexpr unsigned kMaxCone = 8;

/// A structural cut: up to two leaf nets plus the cone cells (root included)
/// between them and the root, in ascending (level, id) order.
struct Cut {
  std::vector<NetId> leaves;
  std::vector<NetId> cone;
};

double cell_delay(const gate::Library& lib, CellKind k) {
  return k == CellKind::kMemQ ? lib.mem_read_delay_ps : lib.spec(k).delay_ps;
}

/// Per-net required times under clock period `T` (the source netlist's own
/// critical path): a rewrite whose root still arrives by its required time
/// cannot lengthen any register/memory/output path beyond T.
std::vector<double> required_times(const Netlist& nl, const gate::Library& lib,
                                   double T) {
  std::vector<double> req(nl.cells().size(),
                          std::numeric_limits<double>::infinity());
  const auto relax = [&](NetId n, double t) { req[n] = std::min(req[n], t); };
  for (const Cell& c : nl.cells())
    if (c.kind == CellKind::kDff && !c.ins.empty())
      relax(c.ins[0], T - lib.dff_setup_ps);
  for (const auto& m : nl.memories()) {
    for (const auto& w : m.writes) {
      for (const NetId n : w.addr) relax(n, T - lib.mem_setup_ps);
      for (const NetId n : w.data) relax(n, T - lib.mem_setup_ps);
      relax(w.enable, T - lib.mem_setup_ps);
    }
  }
  for (const auto& bus : nl.outputs())
    for (const NetId n : bus.nets) relax(n, T);
  const std::vector<NetId> order = nl.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Cell& c = nl.cells()[*it];
    const double t = req[*it] - cell_delay(lib, c.kind);
    for (const NetId in : c.ins) relax(in, t);
  }
  return req;
}

class Mapper {
 public:
  Mapper(const Netlist& src, const gate::Library& lib)
      : src_(src),
        lib_(lib),
        levels_(src.topo_levels()),
        fanout_(gate::fanout_counts(src)) {
    const gate::TimingReport report = gate::analyze_timing(src, lib);
    required_ = required_times(src, lib, report.critical_path_ps);
  }

  std::size_t changes() const noexcept { return changes_; }

  NetId emit(Netlist& dst, NetId root, const std::vector<NetId>& ins,
             const std::function<NetId(NetId)>& mapped) {
    const Cell& c = src_.cells()[root];
    if (gate::is_logic(c.kind)) {
      Plan cut = cut_plan(dst, root, mapped);
      Plan aoi = aoi_plan(dst, root, mapped);
      Plan& best = aoi.savings > cut.savings ? aoi : cut;
      if (best.savings > 1e-9 && best.apply) {
        ++changes_;
        return best.apply();
      }
    }
    return emit_default(dst, src_, root, ins);
  }

 private:
  const Netlist& src_;
  const gate::Library& lib_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> fanout_;
  std::vector<double> required_;
  std::vector<double> dst_arr_;  ///< lazily-memoized arrivals in `dst`
  std::size_t changes_ = 0;

  double area(CellKind k) const { return lib_.spec(k).area_ge; }

  /// Arrival time of an already-emitted destination net, memoized.  Using
  /// actual destination arrivals (not stale source ones) means successive
  /// slack-consuming rewrites cannot stack past the required time.
  double dst_arrival(const Netlist& dst, NetId n) {
    if (dst_arr_.size() < dst.cells().size())
      dst_arr_.resize(dst.cells().size(), -1.0);
    if (dst_arr_[n] >= 0.0) return dst_arr_[n];
    const Cell& c = dst.cells()[n];
    double worst = 0.0;
    switch (c.kind) {
      case CellKind::kConst0:
      case CellKind::kConst1:
      case CellKind::kInput:
        break;
      case CellKind::kDff:
        worst = lib_.dff_clk_to_q_ps;
        break;
      default:
        for (const NetId in : c.ins)
          worst = std::max(worst, dst_arrival(dst, in));
        worst += cell_delay(lib_, c.kind);
        break;
    }
    if (dst_arr_.size() < dst.cells().size())
      dst_arr_.resize(dst.cells().size(), -1.0);
    dst_arr_[n] = worst;
    return worst;
  }

  /// Enumerate cuts of `root` with at most two leaves, bounded by kMaxCone
  /// cone cells, by iteratively expanding combinational leaves.
  std::vector<Cut> enumerate_cuts(NetId root) const {
    std::vector<Cut> cuts;
    std::vector<std::vector<NetId>> seen_leaves;
    Cut first;
    first.cone.push_back(root);
    for (const NetId in : src_.cells()[root].ins)
      if (in > 1 &&
          std::find(first.leaves.begin(), first.leaves.end(), in) ==
              first.leaves.end())
        first.leaves.push_back(in);
    if (first.leaves.size() > 2) return cuts;
    std::sort(first.leaves.begin(), first.leaves.end());
    seen_leaves.push_back(first.leaves);
    cuts.push_back(first);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      const Cut cut = cuts[i];  // copy: cuts grows below
      for (const NetId leaf : cut.leaves) {
        if (!gate::is_logic(src_.cells()[leaf].kind)) continue;
        Cut next;
        next.cone = cut.cone;
        next.cone.push_back(leaf);
        if (next.cone.size() > kMaxCone) continue;
        bool ok = true;
        for (const NetId l : cut.leaves)
          if (l != leaf) next.leaves.push_back(l);
        for (const NetId in : src_.cells()[leaf].ins) {
          if (in <= 1) continue;  // constants are fixed, not variables
          if (std::find(next.cone.begin(), next.cone.end(), in) !=
              next.cone.end()) {
            ok = false;  // a leaf inside the cone cannot be a free variable
            break;
          }
          if (std::find(next.leaves.begin(), next.leaves.end(), in) ==
              next.leaves.end())
            next.leaves.push_back(in);
        }
        if (!ok || next.leaves.size() > 2 || next.leaves.empty()) continue;
        std::sort(next.leaves.begin(), next.leaves.end());
        if (std::find(seen_leaves.begin(), seen_leaves.end(), next.leaves) !=
            seen_leaves.end())
          continue;
        seen_leaves.push_back(next.leaves);
        std::sort(next.cone.begin(), next.cone.end(), [&](NetId a, NetId b) {
          if (levels_[a] != levels_[b]) return levels_[a] < levels_[b];
          return a < b;
        });
        cuts.push_back(std::move(next));
      }
    }
    return cuts;
  }

  /// Truth table of `root` over the cut's leaves: bit i of a 4-bit mask is
  /// the value under leaf assignment (leaf0 = i&1, leaf1 = i>>1).
  std::uint8_t truth_table(NetId root, const Cut& cut) const {
    std::map<NetId, std::uint8_t> val;
    val[0] = 0x0;
    val[1] = 0xF;
    static constexpr std::uint8_t kPattern[2] = {0xA, 0xC};
    for (std::size_t i = 0; i < cut.leaves.size(); ++i)
      val[cut.leaves[i]] = kPattern[i];
    for (const NetId id : cut.cone) {
      const Cell& c = src_.cells()[id];
      val[id] = gate::eval_cell(
          c.kind, [&](std::size_t i) { return val.at(c.ins[i]); },
          std::uint8_t{0xF});
    }
    return val.at(root);
  }

  /// Area currently spent on the cut: the root plus every interior cell
  /// whose entire fanout lies inside the cone (it dies with the match).
  double cone_cost(NetId root, const Cut& cut) const {
    double cost = area(src_.cells()[root].kind);
    for (const NetId id : cut.cone) {
      if (id == root) continue;
      std::uint32_t inside = 0;
      for (const NetId reader : cut.cone)
        for (const NetId in : src_.cells()[reader].ins)
          if (in == id) ++inside;
      if (inside == fanout_[id]) cost += area(src_.cells()[id].kind);
    }
    return cost;
  }

  /// A deferred rewrite of the cell being emitted: estimated area savings
  /// plus the emission closure that realises it.  savings == 0 means "no
  /// profitable match found".
  struct Plan {
    double savings = 0.0;
    std::function<NetId()> apply;
  };

  /// Best profitable single-cell library match for `root` over its ≤2-leaf
  /// cuts, under the depth bound.
  Plan cut_plan(Netlist& dst, NetId root,
                const std::function<NetId(NetId)>& mapped) {
    struct Choice {
      double savings = 0.0;
      CellKind kind = CellKind::kBuf;  // kBuf = wire / constant special case
      int inv_leaf = -1;  ///< leaf that takes an inverter (and-not family)
      std::uint8_t tt = 0;
      Cut cut;
    };
    Choice best;
    bool found = false;
    for (Cut& cut : enumerate_cuts(root)) {
      const std::uint8_t tt = truth_table(root, cut);
      // Wires and constants first: the whole cone collapses.
      if (tt == 0x0 || tt == 0xF || tt == 0xA ||
          (tt == 0xC && cut.leaves.size() > 1)) {
        const double savings = cone_cost(root, cut);
        if (savings > best.savings + 1e-9) {
          best = Choice{savings, CellKind::kBuf, -1, tt, cut};
          found = true;
        }
        continue;
      }
      CellKind kind;
      int inv_leaf = -1;  // and-not family: one leaf enters inverted
      switch (tt) {
        case 0x5: kind = CellKind::kInv; break;
        case 0x3: kind = CellKind::kInv; break;
        case 0x8: kind = CellKind::kAnd2; break;
        case 0xE: kind = CellKind::kOr2; break;
        case 0x7: kind = CellKind::kNand2; break;
        case 0x1: kind = CellKind::kNor2; break;
        case 0x6: kind = CellKind::kXor2; break;
        case 0x9: kind = CellKind::kXnor2; break;
        // and-not family: a&~b and duals, as nor/nand plus a leaf inverter.
        case 0x2: kind = CellKind::kNor2; inv_leaf = 0; break;
        case 0x4: kind = CellKind::kNor2; inv_leaf = 1; break;
        case 0xB: kind = CellKind::kNand2; inv_leaf = 0; break;
        case 0xD: kind = CellKind::kNand2; inv_leaf = 1; break;
        default: continue;
      }
      if ((kind != CellKind::kInv && cut.leaves.size() != 2) ||
          (tt == 0x3 && cut.leaves.size() < 2))
        continue;
      // Timing bound: the match may not push the root past its required
      // time (computed at the source netlist's own critical path).
      const double d_inv = lib_.spec(CellKind::kInv).delay_ps;
      double leaf_arrival = 0.0;
      for (std::size_t li = 0; li < cut.leaves.size(); ++li)
        leaf_arrival = std::max(
            leaf_arrival, dst_arrival(dst, mapped(cut.leaves[li])) +
                              (static_cast<int>(li) == inv_leaf ? d_inv : 0.0));
      if (leaf_arrival + lib_.spec(kind).delay_ps > required_[root] + 1e-6)
        continue;
      const double savings = cone_cost(root, cut) - area(kind) -
                             (inv_leaf >= 0 ? area(CellKind::kInv) : 0.0);
      if (savings > best.savings + 1e-9) {
        best = Choice{savings, kind, inv_leaf, tt, cut};
        found = true;
      }
    }
    Plan plan;
    if (!found) return plan;
    plan.savings = best.savings;
    plan.apply = [&dst, &mapped, best]() {
      if (best.kind == CellKind::kBuf) {
        if (best.tt == 0x0) return dst.const0();
        if (best.tt == 0xF) return dst.const1();
        return mapped(best.cut.leaves[best.tt == 0xA ? 0 : 1]);
      }
      if (best.kind == CellKind::kInv)
        return dst.inv(mapped(best.cut.leaves[best.tt == 0x5 ? 0 : 1]));
      NetId a = mapped(best.cut.leaves[0]);
      NetId b = mapped(best.cut.leaves[1]);
      if (best.inv_leaf == 0) a = dst.inv(a);
      if (best.inv_leaf == 1) b = dst.inv(b);
      return dst.raw_gate(best.kind, {a, b});
    };
    return plan;
  }

  /// AND-OR-invert style structural matches the 2-leaf cut enumeration
  /// cannot see (they need up to 4 free leaves):
  ///   or(and(a,b), and(c,d)) -> nand(nand(a,b), nand(c,d))
  ///   or(and(a,b), y)        -> nand(nand(a,b), inv(y))
  /// and their and/nor duals.  Each absorbed inner gate must be single-
  /// fanout, and the rewritten root may not arrive later than it did in the
  /// unmapped netlist.
  Plan aoi_plan(Netlist& dst, NetId root,
                const std::function<NetId(NetId)>& mapped) {
    Plan plan;
    const Cell& c = src_.cells()[root];
    CellKind inner, mk;
    if (c.kind == CellKind::kOr2) {
      inner = CellKind::kAnd2;
      mk = CellKind::kNand2;
    } else if (c.kind == CellKind::kAnd2) {
      inner = CellKind::kOr2;
      mk = CellKind::kNor2;
    } else {
      return plan;
    }
    const auto absorbable = [&](NetId n) {
      return n > 1 && src_.cells()[n].kind == inner && fanout_[n] == 1;
    };
    const NetId x = c.ins[0], y = c.ins[1];
    const double d_mk = lib_.spec(mk).delay_ps;
    const double d_inv = lib_.spec(CellKind::kInv).delay_ps;
    const double limit = required_[root] + 1e-6;
    const auto arr = [&](NetId n) { return dst_arrival(dst, mapped(n)); };
    if (absorbable(x) && absorbable(y)) {
      const Cell& xc = src_.cells()[x];
      const Cell& yc = src_.cells()[y];
      const double leaf =
          std::max(std::max(arr(xc.ins[0]), arr(xc.ins[1])),
                   std::max(arr(yc.ins[0]), arr(yc.ins[1])));
      const double savings = area(c.kind) + 2 * area(inner) - 3 * area(mk);
      if (leaf + 2 * d_mk <= limit && savings > plan.savings) {
        const NetId xa = xc.ins[0], xb = xc.ins[1];
        const NetId ya = yc.ins[0], yb = yc.ins[1];
        plan.savings = savings;
        plan.apply = [&dst, &mapped, mk, xa, xb, ya, yb]() {
          return dst.raw_gate(
              mk, {dst.raw_gate(mk, {mapped(xa), mapped(xb)}),
                   dst.raw_gate(mk, {mapped(ya), mapped(yb)})});
        };
      }
      // Full-adder carry: or(and(a, b), and(xor(a, b), cin)) is a mux —
      // when a^b the carry is cin, otherwise a == b so the carry is a.
      // One mux (with the propagate xor kept for the sum) beats the
      // NAND-NAND form on both area and delay.
      if (c.kind == CellKind::kOr2) {
        const double d_mux = lib_.spec(CellKind::kMux2).delay_ps;
        for (int side = 0; side < 2; ++side) {
          const Cell& plain = side == 0 ? xc : yc;  // and(a, b)
          const Cell& mixed = side == 0 ? yc : xc;  // and(xor(a, b), cin)
          for (int k = 0; k < 2; ++k) {
            const NetId p = mixed.ins[static_cast<std::size_t>(k)];
            const NetId cin = mixed.ins[static_cast<std::size_t>(1 - k)];
            if (p <= 1 || src_.cells()[p].kind != CellKind::kXor2) continue;
            const Cell& px = src_.cells()[p];
            const bool match =
                (px.ins[0] == plain.ins[0] && px.ins[1] == plain.ins[1]) ||
                (px.ins[0] == plain.ins[1] && px.ins[1] == plain.ins[0]);
            if (!match) continue;
            const double mux_savings =
                area(c.kind) + 2 * area(inner) - area(CellKind::kMux2);
            const double arrive =
                std::max(std::max(arr(p), arr(cin)), arr(plain.ins[0]));
            if (arrive + d_mux > limit || mux_savings <= plan.savings)
              continue;
            const NetId a = plain.ins[0];
            plan.savings = mux_savings;
            plan.apply = [&dst, &mapped, p, cin, a]() {
              return dst.mux2(mapped(p), mapped(cin), mapped(a));
            };
          }
        }
      }
    }
    for (int side = 0; side < 2; ++side) {
      const NetId s = side == 0 ? x : y;
      const NetId o = side == 0 ? y : x;
      if (!absorbable(s) || o <= 1 || absorbable(o)) continue;
      const Cell& sc = src_.cells()[s];
      const bool o_inv = src_.cells()[o].kind == CellKind::kInv;
      // inv(mapped(o)) folds through the factory when o is itself an
      // inverter; if that inverter dies with the fold, it counts as savings.
      const double o_path = o_inv ? arr(src_.cells()[o].ins[0]) + d_mk
                                  : arr(o) + d_inv + d_mk;
      const double s_path = std::max(arr(sc.ins[0]), arr(sc.ins[1])) + 2 * d_mk;
      if (std::max(o_path, s_path) > limit) continue;
      const double inv_cost =
          o_inv ? (fanout_[o] == 1 ? -area(CellKind::kInv) : 0.0)
                : area(CellKind::kInv);
      const double savings =
          area(c.kind) + area(inner) - 2 * area(mk) - inv_cost;
      if (savings <= plan.savings) continue;
      const NetId sa = sc.ins[0], sb = sc.ins[1];
      plan.savings = savings;
      plan.apply = [&dst, &mapped, mk, sa, sb, o]() {
        return dst.raw_gate(mk, {dst.raw_gate(mk, {mapped(sa), mapped(sb)}),
                                 dst.inv(mapped(o))});
      };
    }
    return plan;
  }
};

}  // namespace

gate::Netlist TechMapPass::run(const gate::Netlist& in,
                               PassStats& stats) const {
  static const gate::Library generic = gate::Library::generic();
  const gate::Library& lib = lib_ ? *lib_ : generic;
  Mapper mapper(in, lib);
  RebuildHooks hooks;
  hooks.emit = [&](Netlist& dst, NetId id, const std::vector<NetId>& ins,
                   const std::function<NetId(NetId)>& mapped) {
    return mapper.emit(dst, id, ins, mapped);
  };
  gate::Netlist out = rebuild(in, hooks);
  stats.changes += mapper.changes();
  return out;
}

}  // namespace osss::opt
