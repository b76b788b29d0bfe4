// rtl_rules.hpp — the RTL-IR lint pack.
//
// Static checks over rtl::Module in the role of the paper's analyzer stage:
// run *before* simulation or lowering, on IR that may be arbitrarily
// malformed (nothing here throws on bad IR — badness becomes diagnostics).
//
//   RTL-001  error  combinational cycle (reports one cycle path)
//   RTL-002  error  width/shape mismatch (Module::violations())
//   RTL-003  warn   dead node — agrees with rtl::tape's pruner by
//                   construction (both consume tape::analyze)
//   RTL-004  warn   register without reset value (a violation, too)
//   RTL-005  warn   output port folds to a compile-time constant
//   RTL-006  warn   unreachable FSM state (static reachability over the
//                   next-state mux tree from the reset state)
//   RTL-007  info   dead FSM transition (an arm that can never fire from
//                   any reachable state)
//   RTL-008  warn   stuck register (value can never change after reset)
//   RTL-009  info   constant over-shift (shift amount >= width: always 0)
//
// RTL-002/004 report the IR's own checks.  The deep rules (003 and up)
// only run on a module validate() accepts; on malformed IR you get the
// structural diagnostics alone.

#pragma once

#include "lint/diag.hpp"
#include "rtl/ir.hpp"

namespace osss::lint {

/// Lint one RTL module.  Never throws on malformed IR.
Report lint_module(const rtl::Module& m, const Options& opt = {});

}  // namespace osss::lint
