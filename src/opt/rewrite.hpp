// rewrite.hpp — AIG-style local rewriting over the gate netlist.
//
// Two-level cut matching against a small rule set, applied while the
// netlist is rebuilt through the optimizing factories and iterated to a
// fixpoint (every applied rule strictly removes cells, so the fixpoint
// exists).  Rules, with f standing for a shared operand:
//
//   De Morgan     inv(and(inv a, inv b)) -> or(a, b)        (and dual)
//                 and(inv a, inv b)      -> inv(or(a, b))   when both
//                 inverters are single-fanout (and dual);
//   absorption    and(a, or(a, b))  -> a,   or(a, and(a, b)) -> a,
//                 and(a, or(inv a, b)) -> and(a, b)          (and duals),
//                 and(a, and(a, b)) -> and(a, b)             (and dual);
//   XOR           or(and(a, inv b), and(inv a, b)) -> xor(a, b),
//   recognition   or(and(a, b), and(inv a, inv b)) -> inv(xor(a, b)),
//                 mux(s, inv x, x) -> xor(s, x),
//                 mux(s, x, inv x) -> inv(xor(s, x));
//   MUX           mux(s, f(a, c), f(b, c)) -> f(mux(s, a, b), c) for
//   push-through  f in {and, or, xor} with both f-cells single-fanout,
//                 mux(s, inv a, inv b) -> inv(mux(s, a, b)) likewise,
//                 mux(s1, mux(s2, t, e), e) -> mux(and(s1, s2), t, e).
//
// Fanout conditions are evaluated on the source netlist, so a rule only
// fires where the matched interior gates really die with the rewrite.

#pragma once

#include "opt/pass.hpp"

namespace osss::opt {

class RewritePass final : public Pass {
 public:
  const char* name() const override { return "rewrite"; }
  gate::Netlist run(const gate::Netlist& in, PassStats& stats) const override;
};

}  // namespace osss::opt
