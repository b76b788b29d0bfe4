// retime.hpp — forward retiming across combinational cells.
//
// Moves registers forward through the gate they feed: when every fanin of a
// combinational cell c = f(q1..qk) is a DFF (or a constant), the cell can be
// recomputed one cycle earlier on the registers' D-nets and captured in a
// single new register q' with init f(init1..initk) — the textbook forward
// move with initial-state computation, sequentially equivalent from reset
// (q'(t) == c(t) for every t >= 0).
//
// The pass is greedy and timing-driven: each iteration runs gate::timing,
// walks the reported critical path for the first retimable cell, and applies
// the move only if both guards hold:
//
//   * timing  — the new register's D arrival (max fanin-D arrival + cell
//     delay + setup) stays strictly below the current critical path, so the
//     pass can never regress fmax;
//   * area    — at least as many fanin DFFs die (single-fanout) as the one
//     register the move adds, so the pass never grows the netlist.

#pragma once

#include "opt/pass.hpp"

namespace osss::opt {

class RetimePass final : public Pass {
 public:
  /// Library for arrival-time computation (nullptr = generic()).
  explicit RetimePass(const gate::Library* lib = nullptr) : lib_(lib) {}

  const char* name() const override { return "retime"; }
  gate::Netlist run(const gate::Netlist& in, PassStats& stats) const override;

 private:
  const gate::Library* lib_ = nullptr;
};

}  // namespace osss::opt
