// cosim.hpp — lockstep multi-level differential co-simulation.
//
// One CoSim drives any subset of the repo's simulators — behaviour
// interpreter (hls::Interpreter), RTL cycle simulator (rtl::Simulator) and
// gate simulator (gate::Simulator, any engine) — from a single stimulus
// stream, and scoreboards every declared output of every model against the
// reference (the first model added) on every cycle.  This is the paper's
// "bit and cycle accurate on every stage" check as a reusable engine; the
// bespoke lockstep loops that used to live in bench/exp_r8_accuracy.cpp and
// gate/equiv.cpp are thin layers over it.
//
// When every attached model supports 64 stimulus lanes (gate simulators in
// kNative mode at 64 lanes, RTL tapes at 64 lanes), each simulated cycle
// scores 64 independent vectors; otherwise the run is scalar.  Runs record
// their stimulus, so a mismatch yields a per-lane scalar trace that the
// shrinker (shrink.hpp) can minimize and replay.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/sim.hpp"
#include "hls/behavior.hpp"
#include "hls/interp.hpp"
#include "rtl/ir.hpp"
#include "rtl/sim.hpp"
#include "verify/coverage.hpp"
#include "verify/stimgen.hpp"

namespace osss::verify {

struct IoDecl {
  std::string name;
  unsigned width = 0;
};

/// A recorded scalar stimulus sequence: cycles[c][i] is the value driven
/// into input i (CoSim declaration order) during cycle c.
struct Trace {
  std::vector<IoDecl> inputs;
  std::vector<std::vector<Bits>> cycles;

  std::size_t length() const noexcept { return cycles.size(); }

  /// Approximate heap footprint of the recorded stimulus (containers plus
  /// one 64-bit word per 64 bits of every Bits value).  Reported through
  /// RunResult::recorder_bytes so fuzz campaigns can see recorder overhead.
  std::size_t memory_bytes() const noexcept;
};

/// One simulator wrapped for lockstep driving.  Concrete adapters below.
class Model {
public:
  explicit Model(std::string name) : name_(std::move(name)) {}
  virtual ~Model() = default;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Stimulus lanes the model advances per cycle (1 or Simulator::kLanes).
  virtual unsigned lanes() const { return 1; }

  virtual void reset() = 0;
  virtual void set_input(const std::string& name, const Bits& value) = 0;
  /// Drive 64 lanes (bit_lanes[i] = lane word of input bit i).  Models with
  /// lanes() == 1 receive lane 0 via set_input instead; CoSim never calls
  /// this on them.
  virtual void set_input_lanes(const std::string& name,
                               const std::vector<std::uint64_t>& bit_lanes);
  virtual Bits output(const std::string& name) = 0;
  virtual Bits output_lane(const std::string& name, unsigned lane);
  /// Lane words of an output (element i = lanes of bit i).  The default
  /// broadcasts the scalar output into lane 0.
  virtual std::vector<std::uint64_t> output_words(const std::string& name,
                                                  unsigned width);
  virtual void step() = 0;

  /// Coverage hooks: sampled once per cycle when coverage is enabled on the
  /// co-sim; results land in the run's CoverageReport.
  virtual void sample_coverage() {}
  virtual void report_coverage(CoverageReport&) const {}

private:
  std::string name_;
};

/// hls::Interpreter as a co-sim model (the behavioural reference).
class InterpModel final : public Model {
public:
  explicit InterpModel(hls::Behavior beh, std::string name = "interp");

  hls::Interpreter& interp() noexcept { return interp_; }
  const hls::Behavior& behavior() const noexcept { return beh_; }

  /// Enable FSM state/transition coverage.  `transition_count` comes from
  /// the synthesis Report when available (0 = unknown).
  void enable_fsm_coverage(unsigned transition_count = 0);

  void reset() override;
  void set_input(const std::string& name, const Bits& value) override;
  Bits output(const std::string& name) override;
  void step() override;
  void sample_coverage() override;
  void report_coverage(CoverageReport& r) const override;

private:
  hls::Behavior beh_;
  hls::Interpreter interp_;
  std::unique_ptr<FsmCoverage> fsm_;
};

/// rtl::Simulator as a co-sim model: interpreter or tape engine, the tape
/// optionally contributing up to 64 stimulus lanes.  Port names are resolved
/// to handles once so lockstep driving skips the name lookup.
class RtlModel final : public Model {
public:
  explicit RtlModel(rtl::Module m, std::string name = "rtl");
  RtlModel(rtl::Module m, rtl::SimMode mode, unsigned lanes = 1,
           std::string name = "");
  /// kNative with explicit backend options (tests: forced fallback, bogus
  /// compilers).
  RtlModel(rtl::Module m, rtl::SimMode mode, unsigned lanes,
           rtl::tape::CodegenOptions codegen, std::string name = "");

  rtl::Simulator& sim() noexcept { return sim_; }

  unsigned lanes() const override;
  void reset() override;
  void set_input(const std::string& name, const Bits& value) override;
  void set_input_lanes(
      const std::string& name,
      const std::vector<std::uint64_t>& bit_lanes) override;
  Bits output(const std::string& name) override;
  Bits output_lane(const std::string& name, unsigned lane) override;
  std::vector<std::uint64_t> output_words(const std::string& name,
                                          unsigned width) override;
  void step() override;

private:
  rtl::Simulator sim_;
  std::unordered_map<std::string, rtl::InputHandle> in_;
  std::unordered_map<std::string, rtl::OutputHandle> out_;

  rtl::InputHandle in_handle(const std::string& name);
  rtl::OutputHandle out_handle(const std::string& name);
};

/// gate::Simulator as a co-sim model; kNative engines contribute their
/// lanes per cycle up to 64 (wider native sims join as scalar broadcast
/// models, like wide RtlModel tapes), kEvent engines one.
class GateModel final : public Model {
public:
  explicit GateModel(gate::Netlist nl,
                     gate::SimMode mode = gate::SimMode::kEvent,
                     std::string name = "");
  /// Explicit lane count + backend options (kNative; tests use forced
  /// fallbacks and bogus compilers through `codegen`).
  GateModel(gate::Netlist nl, gate::SimMode mode, unsigned lanes,
            gate::CodegenOptions codegen, std::string name = "");

  gate::Simulator& sim() noexcept { return sim_; }
  const gate::Netlist& netlist() const noexcept { return nl_; }

  /// Enable net toggle coverage.
  void enable_toggle_coverage();

  unsigned lanes() const override;
  void reset() override;
  void set_input(const std::string& name, const Bits& value) override;
  void set_input_lanes(
      const std::string& name,
      const std::vector<std::uint64_t>& bit_lanes) override;
  Bits output(const std::string& name) override;
  Bits output_lane(const std::string& name, unsigned lane) override;
  std::vector<std::uint64_t> output_words(const std::string& name,
                                          unsigned width) override;
  void step() override;
  void sample_coverage() override;
  void report_coverage(CoverageReport& r) const override;

private:
  gate::Netlist nl_;  ///< kept for coverage universe / diagnostics
  gate::Simulator sim_;
  std::unique_ptr<ToggleCoverage> toggle_;
};

/// A scoreboard divergence: reference model vs another model on one output.
struct Mismatch {
  unsigned sequence = 0;
  std::uint64_t cycle = 0;  ///< cycle within the sequence
  unsigned lane = 0;
  std::string output;
  std::string ref_model;
  std::string dut_model;
  Bits ref_value;
  Bits dut_value;
  std::vector<Bits> inputs;  ///< stimulus of the failing cycle/lane

  /// "sequence 0 cycle 12 lane 3: output o = 0x5 (rtl) vs 0x4 (gate) with
  ///  a=0x1 b=0x7" — the counterexample text callers embed in messages.
  std::string describe(const std::vector<IoDecl>& input_decls,
                       bool show_lane) const;
};

struct RunResult {
  bool ok = false;
  std::uint64_t cycles = 0;   ///< clock edges stepped
  std::uint64_t vectors = 0;  ///< stimulus vectors scored (cycles × lanes)
  std::uint64_t checks = 0;   ///< output comparisons performed
  std::uint64_t recorder_bytes = 0;  ///< stimulus-recorder heap footprint
  Mismatch mismatch;          ///< valid when !ok
  Trace failing_trace;        ///< scalar trace of the mismatching lane
  CoverageReport coverage;

  explicit operator bool() const noexcept { return ok; }
};

struct ShardOptions;       // verify/parallel.hpp
struct ShardedRunResult;   // verify/parallel.hpp

class CoSim {
public:
  CoSim() = default;

  /// Attach a model; the FIRST model added is the scoreboard reference.
  Model& add_model(std::unique_ptr<Model> m);
  template <class M>
  M& add(std::unique_ptr<M> m) {
    M& ref = *m;
    add_model(std::move(m));
    return ref;
  }

  Model& model(std::size_t i) { return *models_.at(i); }

  void add_input(const std::string& name, unsigned width);
  void add_output(const std::string& name, unsigned width);

  // Convenience declarations from a design description.
  void declare_io(const hls::Behavior& beh);
  void declare_io(const rtl::Module& m);
  void declare_io(const gate::Netlist& nl);

  const std::vector<IoDecl>& inputs() const noexcept { return inputs_; }
  const std::vector<IoDecl>& outputs() const noexcept { return outputs_; }

  /// Register the inputs with a StimGen (shared constraint `c`).
  void declare_stimulus(StimGen& gen, StimConstraint c = {}) const;

  /// Sample per-model coverage each cycle and report it in RunResult.
  void enable_coverage() { coverage_ = true; }

  /// Run `sequences` independent sequences of `cycles` cycles each, all
  /// models reset at each sequence start, stimulus drawn from `gen`
  /// (lane-wide when every model supports it).  Stops at the first
  /// mismatch; RunResult.failing_trace then holds the scalar stimulus of
  /// the offending lane up to and including the failing cycle.
  RunResult run(StimGen& gen, unsigned cycles, unsigned sequences = 1);

  /// Replay an explicit scalar stimulus sequence (models reset first).
  /// Used by the shrinker and by replay records.
  RunResult run_trace(const Trace& t);

  /// Sharded campaign across a par::Pool: each shard gets its own CoSim
  /// from `make` and a seed derived from the base, so results are
  /// bit-identical for every thread count.  Thin wrapper over
  /// parallel_fuzz — see verify/parallel.hpp for the options and result.
  static ShardedRunResult run_sharded(
      const std::function<std::unique_ptr<CoSim>()>& make,
      const ShardOptions& opt);

private:
  std::vector<std::unique_ptr<Model>> models_;
  std::vector<IoDecl> inputs_;
  std::vector<IoDecl> outputs_;
  bool coverage_ = false;

  unsigned common_lanes() const;
  void reset_models();
  void finish(RunResult& r) const;
  /// Score all outputs of all models against the reference for this cycle.
  /// Returns false (and fills `r.mismatch` except the trace) on divergence.
  bool score_cycle(RunResult& r, unsigned lanes_active,
                   unsigned sequence, std::uint64_t cycle);
};

}  // namespace osss::verify
