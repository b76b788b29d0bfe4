// dataflow.hpp — worklist fixpoint abstract interpreter over rtl::Module.
//
// Computes, for every node of a module, a sound over-approximation of the
// values it can take in *any reachable cycle*: a KnownBits mask and an
// unsigned Interval (domains.hpp).  The engine mirrors the reference
// interpreter's semantics exactly (rtl/sim.cpp is the oracle the soundness
// fuzz suite checks against):
//
//   * registers start at their reset value and accumulate (join) the fact
//     of their next-state function each abstract cycle until a fixpoint —
//     the sequential loop.  Intervals are widened after a few iterations
//     (they have unbounded chains); known bits converge on their own.
//   * memories start all-zero (power-on reset) and join the data facts of
//     every write port whose enable is not provably 0 and whose address is
//     not provably out of range; out-of-range reads yield 0, so reads join
//     the zero word in.
//   * mux arms are evaluated under the branch constraint when the select
//     is a recognizable guard (comparison against a constant, reduction,
//     or the select bit itself): the constrained cone is re-evaluated with
//     a bounded node budget.  This is what recovers bounds like
//     "count <= 8" from the saturating-counter idiom.
//
// The result is a FactDB: per-node facts, per-register invariants, and the
// register-constant-bit export consumed by the ODC/SDC-aware satsweep
// through the gate lowering's DFF naming scheme ("reg[bit]").

#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint/domains.hpp"
#include "rtl/ir.hpp"

namespace osss::lint {

/// Queryable result of analyze_dataflow().  Facts are invariants: they hold
/// in every cycle of every execution from reset, for any input stimulus.
class FactDB {
 public:
  /// Fact for any node (combinational nodes: value this cycle; kReg nodes:
  /// the register invariant).
  const Fact& fact(rtl::NodeId id) const { return node_facts_.at(id); }
  std::size_t node_count() const noexcept { return node_facts_.size(); }

  /// The exact value when the analysis pins the node to a constant.
  std::optional<Bits> constant(rtl::NodeId id) const {
    return node_facts_.at(id).constant();
  }
  /// Knowledge about one bit of a node.
  std::optional<bool> bit(rtl::NodeId id, unsigned i) const {
    return node_facts_.at(id).kb.bit(i);
  }
  Interval interval(rtl::NodeId id) const { return node_facts_.at(id).iv; }

  /// Invariant of register `reg_index` (same fact as its kReg node).
  const Fact& register_fact(std::size_t reg_index) const {
    return reg_facts_.at(reg_index);
  }

  /// Register bits proven constant across all reachable cycles, keyed by
  /// the gate lowering's per-bit DFF cell name ("reg[bit]").  Registers
  /// with ambiguous (duplicate) names are skipped.  This is the fact
  /// conduit into the netlist optimizer (opt::SatSweepPass).
  std::unordered_map<std::string, bool> const_reg_bits() const;

  /// Write ports proven dead because their address is always out of range
  /// (pairs of memory index, write-port index) — RTL-013's evidence.
  const std::vector<std::pair<unsigned, unsigned>>& dead_writes() const {
    return dead_writes_;
  }

  unsigned iterations() const noexcept { return iterations_; }
  bool converged() const noexcept { return converged_; }

 private:
  friend FactDB analyze_dataflow(const rtl::Module&);

  std::vector<Fact> node_facts_;
  std::vector<Fact> reg_facts_;
  std::vector<std::string> reg_names_;  ///< snapshot for const_reg_bits()
  std::vector<std::pair<unsigned, unsigned>> dead_writes_;
  unsigned iterations_ = 0;
  bool converged_ = false;
};

/// Run the abstract interpreter.  The module must validate() (the lint
/// driver only runs dataflow rules on structurally clean modules; the
/// engine validates again defensively).
FactDB analyze_dataflow(const rtl::Module& m);

}  // namespace osss::lint
