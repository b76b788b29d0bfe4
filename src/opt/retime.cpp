#include "opt/retime.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "gate/timing.hpp"
#include "opt/rebuild.hpp"

namespace osss::opt {

namespace {

/// Greedy iteration bound: moves applied per pass run.
constexpr unsigned kMaxMoves = 64;

/// First cell on the critical path whose fanins are all registers or
/// constants (with at least one register) — the one forward move that can
/// shorten this path.  kInvalidNet when the path has none.
NetId find_candidate(const gate::Netlist& nl,
                     const std::vector<NetId>& path) {
  for (const NetId id : path) {
    const gate::Cell& c = nl.cells()[id];
    if (!gate::is_logic(c.kind)) continue;
    bool has_dff = false, ok = true;
    for (const NetId in : c.ins) {
      const CellKind k = nl.cells()[in].kind;
      if (k == CellKind::kDff) has_dff = true;
      else if (k != CellKind::kConst0 && k != CellKind::kConst1) ok = false;
    }
    if (ok && has_dff) return id;
    // Cells further along the path read this one, so none can have an
    // all-register fanin either.
    return gate::kInvalidNet;
  }
  return gate::kInvalidNet;
}

}  // namespace

gate::Netlist RetimePass::run(const gate::Netlist& in,
                              PassStats& stats) const {
  static const gate::Library generic = gate::Library::generic();
  const gate::Library& lib = lib_ ? *lib_ : generic;

  gate::Netlist nl = in;
  for (unsigned move = 0; move < kMaxMoves; ++move) {
    const gate::TimingReport report = gate::analyze_timing(nl, lib);
    const NetId c = find_candidate(nl, report.critical_path);
    if (c == gate::kInvalidNet) break;
    const gate::Cell cell = nl.cells()[c];

    // Timing guard: the new register's D-pin path must beat the path it
    // replaces, or the move cannot improve fmax.
    double d_arrival = 0.0;
    for (const NetId fi : cell.ins) {
      if (nl.cells()[fi].kind != CellKind::kDff) continue;
      d_arrival = std::max(d_arrival, report.arrival[nl.cells()[fi].ins[0]]);
    }
    const double new_cost = d_arrival + lib.spec(cell.kind).delay_ps +
                            lib.dff_setup_ps;
    if (new_cost >= report.critical_path_ps) break;

    // Area guard: the move adds one register, so at least one fanin
    // register must die with it (its Q feeding only this cell).
    const std::vector<std::uint32_t> fanout = gate::fanout_counts(nl);
    std::size_t dying = 0;
    std::vector<NetId> counted;
    for (const NetId fi : cell.ins) {
      if (nl.cells()[fi].kind != CellKind::kDff) continue;
      if (std::find(counted.begin(), counted.end(), fi) != counted.end())
        continue;
      counted.push_back(fi);
      if (fanout[fi] == 1) ++dying;
    }
    if (dying == 0) break;

    // Forward move: recompute the cell on the registers' D nets, capture in
    // one new register whose init is the cell evaluated on the old inits.
    std::vector<NetId> d_ins;
    std::vector<bool> init_ins;
    for (const NetId fi : cell.ins) {
      const gate::Cell& f = nl.cells()[fi];
      if (f.kind == CellKind::kDff) {
        d_ins.push_back(f.ins.at(0));
        init_ins.push_back(f.init);
      } else {
        d_ins.push_back(fi);
        init_ins.push_back(f.kind == CellKind::kConst1);
      }
    }
    const NetId moved = nl.raw_gate(cell.kind, std::move(d_ins));
    const auto init = [&](std::size_t i) -> bool { return init_ins[i]; };
    const NetId q = nl.dff("rt" + std::to_string(nl.cells().size()),
                           gate::eval_cell(cell.kind, init, true));
    nl.connect_dff(q, moved);
    nl.replace_net(c, q);
    nl.sweep();  // drop dead registers before the next timing run
    ++stats.changes;
  }
  nl.sweep();
  return nl;
}

}  // namespace osss::opt
