// equiv.hpp — randomized sequential equivalence checking between netlists.
//
// A miter-style checker: both netlists are reset and driven with the same
// random input sequences; any cycle where an output pair differs is a
// counterexample.  Used by the zero-overhead experiment (R4) and the IP
// integration tests to demonstrate the §12 "fully complies with its
// original description" property at netlist level.
//
// The checker is a thin wrapper over the co-simulation driver
// (verify::CoSim), so it lives in the verify library (src/verify/equiv.cpp)
// and linking against check_equivalence requires osss_verify.
//
// The checker runs on either of the gate simulator's engines
// (EquivOptions).  With a side on the kNative engine (64 lanes by default;
// generated code or, with codegen.force_fallback, the interpreted sweep),
// every simulated cycle checks one independent stimulus vector per lane; a
// kEvent side facing it runs as one event engine per lane
// (verify::ReplicaModel).  Mixing engines cross-validates them on one
// netlist: check_equivalence(nl, nl, {.mode_a = kEvent, .mode_b =
// kNative}) must hold on every lane.
//
// Determinism contract:
//   * seed == 0 (the default) derives the effective seed from the two
//     netlist NAMES (derive_equiv_seed), so different call sites — and
//     different designs at one call site — get distinct but fully
//     reproducible vector streams instead of all sharing "seed 1";
//   * any nonzero seed is used verbatim, for replaying a reported failure;
//   * the effective seed is returned in EquivResult::seed and embedded in
//     the counterexample text, so a failure log alone suffices to re-run
//     the identical check;
//   * every sequence is an independent shard seeded with
//     derive(base, "seq/<i>") and the shards run on a work-stealing pool
//     (EquivOptions::threads); the verdict, the reported counterexample
//     (lowest failing sequence) and cycles_checked do not depend on the
//     thread count.

#pragma once

#include <cstdint>
#include <string>

#include "gate/netlist.hpp"
#include "gate/sim.hpp"

namespace osss::gate {

struct EquivResult {
  bool equivalent = false;
  std::uint64_t cycles_checked = 0;  ///< stimulus vectors compared
  std::uint64_t seed = 0;            ///< effective seed of the run
  std::string counterexample;        ///< empty when equivalent

  explicit operator bool() const noexcept { return equivalent; }
};

struct EquivOptions {
  unsigned sequences = 8;  ///< independent runs, each from reset
  unsigned cycles = 256;   ///< clock cycles per run
  std::uint64_t seed = 0;  ///< 0 = derive from the netlist names
  SimMode mode_a = SimMode::kEvent;  ///< engine simulating netlist `a`
  SimMode mode_b = SimMode::kEvent;  ///< engine simulating netlist `b`
  /// Stimulus lanes when a side is kNative (0 = the 64-lane default; 1 or
  /// a multiple of 64 up to Simulator::kMaxLanes); every lane is scored.
  /// Two kEvent sides run one lane.
  unsigned lanes = 0;
  /// kNative sides only: backend knobs (forced fallback, compiler override).
  CodegenOptions codegen = {};
  /// Pool contexts running the sequence shards: 0 = the process-wide
  /// par::Pool::global(), 1 = inline on the caller, n = a private n-context
  /// pool.  The verdict, counterexample and cycles_checked are identical
  /// for every value — each sequence is an independent shard with a seed
  /// derived from the base, reduced in sequence order.
  unsigned threads = 0;
};

/// The seed a default (seed == 0) check of these two netlists will use.
std::uint64_t derive_equiv_seed(const Netlist& a, const Netlist& b);

/// Randomized sequential equivalence check.  Both netlists must expose
/// identical input and output bus interfaces (name and width).  Lane-wide
/// stimulus (EquivOptions::lanes) is used when either engine is kNative;
/// with two kEvent sides one scalar vector drives both each cycle.
EquivResult check_equivalence(const Netlist& a, const Netlist& b,
                              const EquivOptions& opt);

/// Convenience overload with the historical positional parameters; `mode`
/// selects the engine for both sides and seed 0 derives from the names.
EquivResult check_equivalence(const Netlist& a, const Netlist& b,
                              unsigned sequences = 8, unsigned cycles = 256,
                              std::uint64_t seed = 0,
                              SimMode mode = SimMode::kEvent);

}  // namespace osss::gate
