// rebuild.hpp — netlist reconstruction scaffold shared by the opt passes.
//
// Every pass in src/opt produces its result by walking the source netlist in
// a deterministic dependency order and re-emitting each cell into a fresh
// Netlist, optionally substituting nets (class merging) or whole subcones
// (rewriting, technology mapping) along the way.  Rebuilding through the
// optimizing factories re-runs constant folding and structural hashing over
// the transformed logic for free, so a pass only has to express its own
// rewrite — the baseline simplifications never regress.
//
// Emission order: input buses, memory declarations and DFF Q placeholders
// first (all sources), then combinational cells by ascending (logic level,
// NetId) — a valid topological order in which equal-level cells never read
// each other — then DFF D connections, memory write ports and output buses.

#pragma once

#include <functional>
#include <vector>

#include "gate/netlist.hpp"

namespace osss::opt {

using gate::Cell;
using gate::CellKind;
using gate::Netlist;
using gate::NetId;

struct RebuildHooks {
  /// Resolve a source net to its equivalence-class representative before
  /// any use (identity when empty).  A representative must precede every
  /// other class member in (level, id) order; sources represent themselves
  /// or another source.
  std::function<NetId(NetId)> replace;

  /// Emit one combinational source cell (logic or kMemQ) into `dst`;
  /// `ins` are the already-mapped input nets and `mapped` resolves any
  /// already-emitted source net (sources and lower-(level, id) cells) to its
  /// destination net — rewrite rules use it to reach cut leaves deeper than
  /// the direct inputs.  Return the destination net.  When empty,
  /// `emit_default` is used.
  std::function<NetId(Netlist& dst, NetId src_id, const std::vector<NetId>& ins,
                      const std::function<NetId(NetId)>& mapped)>
      emit;
};

/// Re-emit `src_id`'s cell: canonical kinds go through the optimizing
/// factories (kBuf vanishes), while mapped kinds (kNand2/kNor2/kXnor2, as
/// placed by the technology mapper) are preserved verbatim via raw_gate
/// after hand-applied constant/idempotence folds — re-decomposing them
/// would undo the mapping and regress area on every later pass.
NetId emit_default(Netlist& dst, const Netlist& src, NetId src_id,
                   const std::vector<NetId>& ins);

/// Rebuild `src` through the hooks.  The result is swept and validated.
Netlist rebuild(const Netlist& src, const RebuildHooks& hooks = {});

/// Combinational cells (including kMemQ) of `src` in ascending
/// (topo level, NetId) order — the rebuild emission order.
std::vector<NetId> level_order(const Netlist& src);

}  // namespace osss::opt
