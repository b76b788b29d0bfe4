// pass.hpp — the gate-level optimization pass pipeline.
//
// Runs between gate::lower_to_gates and simulation / timing / emission.
// A Pass is a pure netlist-to-netlist function with statistics; a Pipeline
// chains passes and — this is the pass *contract*, not an afterthought —
// differentially verifies every pass invocation: with self-checking enabled
// (the default outside NDEBUG builds, overridable via OSSS_OPT_CHECK=0/1 or
// PipelineOptions::self_check) each pass output is co-simulated against its
// input with gate::check_equivalence, and any divergence throws with the
// pass name, the derived seed and the counterexample.  Optimization strength
// can grow pass by pass; a wrong rewrite can never silently ship.
//
// Standard pipeline (opt::Pipeline::standard, opt::optimize):
//   1. rewrite  — AIG-style local rewriting: two-level cut matching against
//                 a small rule set (De Morgan, absorption, XOR recognition,
//                 MUX push-through), iterated to a fixpoint;
//   2. satsweep — merge functionally-equivalent nets proven equal by 64-lane
//                 bit-parallel simulation plus a bounded exhaustive /
//                 random-resolution check (registers dedup too);
//   3. retime   — forward retiming: move DFFs across combinational cells to
//                 cut the critical path reported by gate::timing;
//   4. techmap  — cut-based technology mapping back onto gate::Library
//                 cells (NAND/NOR/XNOR forms) minimizing area under the
//                 input netlist's depth bound.

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gate/library.hpp"
#include "gate/netlist.hpp"
#include "gate/sim.hpp"

namespace osss::opt {

/// Per-invocation pass statistics.  "cells" counts every live cell of the
/// netlist (constants, inputs, gates, DFFs, memory read bits) — by the pass
/// contract the output netlist is swept, so cells_after always equals the
/// output's cell count and sweep()'s mark set keeps every one of them.
struct PassStats {
  std::string pass;
  std::size_t cells_before = 0, cells_after = 0;
  std::size_t gates_before = 0, gates_after = 0;   ///< combinational gates
  std::size_t dffs_before = 0, dffs_after = 0;
  std::size_t depth_before = 0, depth_after = 0;   ///< logic levels
  double area_before = 0.0, area_after = 0.0;      ///< gate equivalents
  std::size_t changes = 0;  ///< pass-specific: rewrites / merges / moves
  /// satsweep only: merges seeded by externally proven register-bit facts
  /// (lint::FactDB::const_reg_bits via SatSweepOptions::facts).
  std::size_t fact_merges = 0;
  /// satsweep only: observability-don't-care merges (sequential-trajectory
  /// sampled, verified in-pass).
  std::size_t odc_merges = 0;
  double wall_ms = 0.0;
  bool verified = false;  ///< differential self-check ran and passed

  /// One-line table row used by osss-opt and the lint diagnostics.
  std::string format() const;
};

/// Thrown by Pipeline::run when a pass's self-check finds a divergence.
/// It is a std::logic_error, so callers catching that keep working; the
/// CLI tells it apart from every other failure.
class PassDivergence : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Transform `in`; the result must be functionally equivalent (sequential
  /// equivalence from reset), swept and validated.
  virtual gate::Netlist run(const gate::Netlist& in, PassStats& stats) const = 0;
};

struct PipelineOptions {
  /// Library used for area/depth statistics and by the retiming/techmap
  /// passes (nullptr = gate::Library::generic()).
  const gate::Library* lib = nullptr;
  /// Differential self-check per pass: -1 = automatic (OSSS_OPT_CHECK env
  /// override, else on outside NDEBUG builds), 0 = off, 1 = on.
  int self_check = -1;
  /// Base seed of the self-checks; 0 derives from the netlist name.
  std::uint64_t seed = 0;
  /// Pipeline::run repeats its pass list until a full round reports zero
  /// changes (a fixpoint — mapping exposes merges the first sweep round
  /// could not see) or this many rounds have run.  The ExpoCU corpus
  /// reaches the fixpoint in at most three rounds.
  unsigned max_rounds = 4;
  /// Register-bit constants proven by the RTL-level abstract interpreter
  /// (lint::analyze_dataflow(...).const_reg_bits()), keyed by the gate
  /// lowering's DFF names ("reg[bit]").  Handed to the satsweep pass,
  /// which re-verifies every claim before using it.  nullptr = none.
  std::shared_ptr<const std::unordered_map<std::string, bool>> facts;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions opt = {});

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  Pipeline& add(std::unique_ptr<Pass> pass);
  std::size_t pass_count() const noexcept { return passes_.size(); }

  /// The rewrite -> satsweep -> retime -> techmap default.
  static Pipeline standard(PipelineOptions opt = {});

  /// Run every pass in order; appends one PassStats per invocation.
  /// Throws PassDivergence if a self-check finds a divergence.
  gate::Netlist run(const gate::Netlist& in);

  const std::vector<PassStats>& stats() const noexcept { return stats_; }
  void clear_stats() { stats_.clear(); }

  const PipelineOptions& options() const noexcept { return opt_; }
  /// Whether self-checking is in effect after resolving -1 (env / NDEBUG).
  bool self_check_enabled() const;

 private:
  PipelineOptions opt_;
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassStats> stats_;
};

/// One-call form of the standard pipeline; per-pass stats appended to
/// `stats` when non-null.
gate::Netlist optimize(const gate::Netlist& in, PipelineOptions opt = {},
                       std::vector<PassStats>* stats = nullptr);

/// Registry of every optimization pass, in standard pipeline order — the
/// pass-level fuzz harness and the CLI tools instantiate passes from here.
struct PassInfo {
  const char* name;
  const char* title;
  std::unique_ptr<Pass> (*make)();
};
const std::vector<PassInfo>& pass_registry();

/// Instantiate a registered pass by name; nullptr for unknown names.
std::unique_ptr<Pass> make_pass(const std::string& name);

}  // namespace osss::opt
