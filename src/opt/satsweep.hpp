// satsweep.hpp — simulation-guided sweeping of functionally-equivalent nets.
//
// Classic SAT sweeping with the repo's 64-lane bit-parallel simulation in
// the solver seat.  Cut points (primary inputs, DFF outputs, memory read
// bits) are free variables; combinational nets are simulated under random
// 64-lane patterns for several rounds, and nets whose signatures collide
// become merge candidates.  Every candidate pair is then *resolved*:
//
//   * when the union structural support of the two cones is at most
//     kExhaustiveBits (14) free variables, all 2^k assignments are
//     enumerated in 64-lane blocks — the merge is proven, not sampled;
//   * larger cones get kResolutionRounds (96) additional independent
//     64-lane random rounds; survivors are accepted (random resolution,
//     verified in-pass as below).
//
// Registers dedup too: DFFs whose resolved D-nets merge and whose init
// values agree are unified, and the sweep iterates until no new comb or
// register merge appears (a register merge can equalize more cones).
//
// Two fact-driven phases extend the classic sweep:
//
//   * SDC seeding (`facts`): register-bit constants proven by the RTL-level
//     abstract interpreter (lint::FactDB::const_reg_bits) arrive keyed by
//     the lowering's stable DFF names.  Each claim is re-proven here by
//     netlist induction — with a random-resolution fallback for cones too
//     wide for the exhaustive prover, which is exactly what the facts add
//     over const_regs — and then united into the constant-net class.
//   * Sequential/ODC merging: a 64-lane *sequential* trajectory from reset
//     samples the reachable state space; per cycle, chain-rule
//     observability masks are back-propagated from the observation points
//     (outputs, DFF D pins, memory write ports, memory read addresses).
//     The trajectory only *nominates* pairs; every merge is then proven.
//     Register pairs that agreed on every sampled cycle go through van
//     Eijk induction — assume the candidate set equal, prove each pair's
//     next-state cones equal exhaustively, drop failures and re-prove to a
//     fixpoint.  Combinational pairs that differ only where the mask says
//     nobody is watching are accepted on an exact exhaustive proof over
//     every affected observation cone, with and without the replacement.
//
// Random resolution and the fact phase are sampled for wide cones, so any
// run that applied a sampled, fact or sequential merge is differentially
// verified in-pass (gate::check_equivalence against the input, 64 lanes)
// and falls back to proven merges only when the check disagrees — the pass
// never ships an unverified speculative merge.

#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "opt/pass.hpp"

namespace osss::opt {

struct SatSweepOptions {
  /// Externally proven per-bit register constants, keyed by the gate
  /// lowering's DFF cell name ("reg[bit]") — the conduit from
  /// lint::analyze_dataflow.  Claims are re-verified before use; nullptr
  /// or empty disables the phase.
  std::shared_ptr<const std::unordered_map<std::string, bool>> facts;
};

class SatSweepPass final : public Pass {
 public:
  explicit SatSweepPass(SatSweepOptions opt = {}) : opt_(opt) {}

  const char* name() const override { return "satsweep"; }
  gate::Netlist run(const gate::Netlist& in, PassStats& stats) const override;

 private:
  SatSweepOptions opt_;
};

}  // namespace osss::opt
