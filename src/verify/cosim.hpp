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
// A run has one lane count: the lanes() of its models, which must all
// agree (run() throws otherwise).  At every lane count L, one included,
// every input bit travels as ceil(L / 64) lane words through
// set_input_lanes(), every lane draws its own stimulus and every lane is
// scored; lane 0 follows the scalar stimulus stream, so a one-lane run
// drives the vectors a scalar loop would.  A scalar model joins a
// lane-parallel run as a ReplicaModel: L copies of it, one per lane.  Runs
// record their stimulus, so a mismatch yields the failing lane's scalar
// trace that the shrinker (shrink.hpp) can minimize and replay.

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

  /// Stimulus lanes the model advances per cycle.  Every model of one
  /// co-simulation has the same count.
  virtual unsigned lanes() const { return 1; }

  virtual void reset() = 0;
  /// Drive one value into every lane.
  virtual void set_input(const std::string& name, const Bits& value) = 0;
  /// Drive every lane: input bit i occupies ceil(lanes() / 64) consecutive
  /// lane words from bit_lanes[i * ceil(lanes() / 64)], bit l % 64 of word
  /// l / 64 being lane l (the gate and RTL simulators' layout).  CoSim
  /// drives every input through it at every lane count; the default drives
  /// lane 0 through set_input.
  virtual void set_input_lanes(const std::string& name,
                               const std::vector<std::uint64_t>& bit_lanes);
  virtual Bits output(const std::string& name) = 0;
  virtual Bits output_lane(const std::string& name, unsigned lane);
  /// Lane words of an output, in set_input_lanes' layout.  The default
  /// puts the scalar output into lane 0.
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

/// rtl::Simulator as a co-sim model: interpreter or tape engine, at the
/// simulator's lane count.  Port names are resolved to handles once so
/// lockstep driving skips the name lookup.
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

/// gate::Simulator as a co-sim model at the simulator's lane count: the
/// kNative engine's lanes, one for kEvent.
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
  gate::Simulator sim_;
  std::unique_ptr<ToggleCoverage> toggle_;
};

/// L copies of a scalar model behind one L-lane model, copy l being lane l:
/// how a one-lane reference (behaviour or RTL interpreter, gate event
/// engine) scores every lane of a lane-parallel engine.  Lane words split
/// into per-copy values and outputs assemble back into lane words through
/// par::lane_words_to_values / values_to_lane_words, 64 port bits at a
/// time.  set_input() drives every copy (run_trace and the shrinker
/// broadcast scalar vectors).  Coverage is sampled on every copy and
/// reported merged, under the model's name.
class ReplicaModel final : public Model {
public:
  using Factory = std::function<std::unique_ptr<Model>()>;

  /// Calls `make` `lanes` times; every copy must have one lane.  The model
  /// takes the copies' name.
  ReplicaModel(unsigned lanes, const Factory& make);

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
  ReplicaModel(std::unique_ptr<Model> first, unsigned lanes,
               const Factory& make);

  std::vector<std::unique_ptr<Model>> copies_;
  std::vector<Bits> bits_;             ///< one port value per lane
  std::vector<std::uint64_t> values_;  ///< 64 port bits per lane
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
  /// models reset at each sequence start, stimulus drawn from `gen` (one
  /// vector per lane and cycle).  Throws std::invalid_argument when the
  /// models' lane counts differ.  Stops at the first mismatch;
  /// RunResult.failing_trace then holds the scalar stimulus of the
  /// offending lane up to and including the failing cycle.
  RunResult run(StimGen& gen, unsigned cycles, unsigned sequences = 1);

  /// Replay an explicit scalar stimulus sequence (models reset first),
  /// driven into every lane and scored on lane 0.  Used by the shrinker and
  /// by replay records.
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

  /// The models' one lane count; throws std::invalid_argument when they
  /// differ.
  unsigned common_lanes() const;
  void reset_models();
  void finish(RunResult& r) const;
  /// Score all outputs of all models against the reference for this cycle
  /// on lanes [0, scored) of `lanes`.  Returns false (and fills `r.mismatch`
  /// except the trace) on divergence.
  bool score_cycle(RunResult& r, unsigned lanes, unsigned scored,
                   unsigned sequence, std::uint64_t cycle);
};

}  // namespace osss::verify
