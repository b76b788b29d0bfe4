// techmap.hpp — cut-based technology mapping onto gate::Library cells.
//
// The netlist factories canonicalize into the {inv, and, or, xor, mux}
// basis (nand2() emits inv(and2) and so on), which is what makes structural
// hashing effective — but it leaves area on the table: in the generic
// library a NAND2 costs 1.0 GE against 2.0 GE for AND2+INV.  This pass maps
// the canonical network back onto the full cell set.
//
// For every combinational root it enumerates structural cuts of up to two
// leaves (cone size bounded), computes the root's truth table over the cut
// by local simulation, and matches it against every library cell function
// (AND/OR/NAND/NOR/XOR/XNOR, plus INV/BUF/constants for 1-leaf cuts).
// Matching by *function* rather than shape catches the polarity variants a
// pattern matcher misses — and(inv a, inv b) maps to NOR2(a, b) whether or
// not the inverters are shared.  Among matches it picks the cheapest by
// exact area delta (new cell vs the root plus every interior cell that the
// match kills, i.e. whose entire fanout lies inside the cone), applied only
// under the depth bound: a match may never push the root's arrival beyond
// its arrival in the unmapped netlist, so the pass minimizes area without
// regressing the critical path.

#pragma once

#include "opt/pass.hpp"

namespace osss::opt {

class TechMapPass final : public Pass {
 public:
  /// Library mapped onto (nullptr = generic()).
  explicit TechMapPass(const gate::Library* lib = nullptr) : lib_(lib) {}

  const char* name() const override { return "techmap"; }
  gate::Netlist run(const gate::Netlist& in, PassStats& stats) const override;

 private:
  const gate::Library* lib_ = nullptr;
};

}  // namespace osss::opt
