// gate_rules.hpp — the gate-netlist lint pack.
//
// Post-synthesis netlist checks, the back-end counterpart of the RTL pack
// (the paper's flow runs analysis both before synthesis and on the final
// gate netlist, its Fig. 6):
//
//   GATE-001  error  combinational loop through logic cells (reports path)
//   GATE-002  warn   memory with multiple write ports (write-write collision
//                    possible; true multi-driven *nets* are structurally
//                    impossible here since a cell index is its output net)
//   GATE-003  error  floating/dangling input: bad net reference, DFF without
//                    a D input, malformed memory port, arity mismatch
//                    (Netlist::violations())
//   GATE-004  warn   dead cell — logic Netlist::sweep() would remove
//                    (the cells Netlist::live_cells() leaves unmarked)
//   GATE-005  info   fanout histogram (gate::fanout_counts); per-net
//                    warning above Options::fanout_warn_threshold
//
// Never throws on malformed netlists; damage becomes diagnostics.  The
// rules report the netlist's own checks, mark and counts; GATE-001/004/005
// only run once every net reference is sound.

#pragma once

#include "gate/netlist.hpp"
#include "lint/diag.hpp"

namespace osss::lint {

/// Lint one gate netlist.  Never throws on malformed netlists.
Report lint_netlist(const gate::Netlist& nl, const Options& opt = {});

}  // namespace osss::lint
