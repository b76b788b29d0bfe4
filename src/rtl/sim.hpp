// sim.hpp — cycle-accurate RTL simulator.
//
// Executes an rtl::Module in one of three modes, selected at construction
// (mirroring gate::Simulator):
//
//   * SimMode::kInterp — the reference interpreter: combinational nodes are
//     evaluated as Bits values (rtl::eval_op) in a precomputed topological
//     order.  Slow but transparently close to the IR semantics; this is the
//     oracle the tape engine is differentially tested against.
//   * SimMode::kTape and SimMode::kNative — the module compiled once to a
//     word-level tape (rtl/tape.hpp) over a preallocated uint64_t arena,
//     with zero per-cycle allocation, level-granular activity gating and
//     multi-lane stimulus, executed by one engine (tape::NativeEngine,
//     rtl/codegen.hpp) that owns the arena, port I/O and commit for both.
//     kNative evaluates through generated C++ compiled at runtime and
//     dlopen'd (threaded handlers when no compiler is available; up to
//     tape::kMaxLanes lanes with SIMD lane groups); kTape never compiles
//     and switches on each instruction's opcode per lane (up to 64 lanes).
//
// Ports can be addressed by name (convenience) or through cached
// InputHandle/OutputHandle values that skip the name lookup on the hot path.
// This is the reference model for the gate-level netlist and one of the
// simulators compared in the simulation-speed experiment (R7).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "par/batch.hpp"
#include "rtl/codegen.hpp"
#include "rtl/ir.hpp"
#include "rtl/tape.hpp"

namespace osss::rtl {

enum class SimMode : std::uint8_t {
  kInterp,  ///< per-node Bits interpreter (the oracle)
  kTape,    ///< compiled word-level tape engine (interpreted, <= 64 lanes)
  kNative,  ///< generated native code / threaded-code fallback (wide lanes)
};

const char* sim_mode_name(SimMode mode);

/// Cached port indices: resolve once, drive every cycle without a name
/// lookup.  Obtained from Simulator::input_handle / output_handle.
struct InputHandle {
  std::uint32_t index = 0;
};
struct OutputHandle {
  std::uint32_t index = 0;
};

class Simulator {
public:
  /// Takes the module by value: the simulator owns its design, so
  /// temporaries (`Simulator sim(build_foo())`) are safe.  `lanes > 1`
  /// (parallel stimulus lanes) requires SimMode::kTape (<= 64) or
  /// SimMode::kNative (<= tape::kMaxLanes).  `codegen` tunes the native
  /// backend and is ignored by the other modes.
  explicit Simulator(Module module, SimMode mode = SimMode::kInterp,
                     unsigned lanes = 1, tape::CodegenOptions codegen = {});

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const Module& module() const noexcept { return m_; }
  SimMode mode() const noexcept { return mode_; }
  unsigned lanes() const noexcept { return lanes_; }

  /// Resolve a port name once.  Throws std::logic_error on unknown names.
  InputHandle input_handle(const std::string& name) const;
  OutputHandle output_handle(const std::string& name) const;

  /// Drive an input port.  Takes effect at the next eval.  The u64 overload
  /// truncates `value` to the port width.
  void set_input(const std::string& name, const Bits& value);
  void set_input(const std::string& name, std::uint64_t value);
  void set_input(InputHandle h, const Bits& value);
  void set_input(InputHandle h, std::uint64_t value);

  /// Drive all lanes of one input, in every mode: input bit i occupies
  /// lane_words() consecutive elements starting at bit_lanes[i *
  /// lane_words()], lane l in bit l % 64 of element l / 64 (the
  /// gate::Simulator and par::StimulusBlock layout; at one lane, bit 0 of
  /// element i).  Bits of lanes past lanes() are ignored; a size other than
  /// width * lane_words() throws std::logic_error.  Accepts any contiguous
  /// storage without copying — batch runners pass block memory directly.
  void set_input_lanes(InputHandle h, std::span<const std::uint64_t> bit_lanes);
  /// Drive all lanes of one input with one value per lane — values[l] =
  /// lane l, truncated to the port width (tape/native mode, <= 64-bit
  /// ports).  The engines' arenas are lane-major, so this skips the bit
  /// transpose of set_input_lanes; use it for per-lane stimulus loops.
  void set_input_values(InputHandle h, std::span<const std::uint64_t> values);
  /// Words per lane mask: ceil(lanes / 64).
  unsigned lane_words() const noexcept { return (lanes_ + 63) / 64; }

  /// Current value of any node (evaluates combinational logic on demand).
  /// In tape mode, throws std::logic_error for nodes the compiler pruned or
  /// folded away.  Throws std::logic_error when lane >= lanes().
  Bits get(NodeId id, unsigned lane = 0);
  /// Current value of an output port (lane 0).
  Bits output(const std::string& name);
  Bits output(OutputHandle h);
  /// Throws std::logic_error when lane >= lanes().
  Bits output_lane(OutputHandle h, unsigned lane);
  /// Low 64 bits of an output, lane 0 — the allocation-free hot path for
  /// testbench loops (pairs with the u64 set_input overload).
  std::uint64_t output_u64(OutputHandle h);
  /// Lane words of an output in set_input_lanes' layout, in every mode;
  /// bits of lanes past lanes() are zero.
  std::vector<std::uint64_t> output_words(OutputHandle h);
  /// One value per lane of an output (tape/native mode, <= 64-bit ports);
  /// the inverse of set_input_values.
  std::vector<std::uint64_t> output_values(OutputHandle h);

  /// One rising clock edge: evaluate, capture register/memory next state,
  /// commit.
  void step();
  /// N clock edges.
  void step(unsigned n) {
    for (unsigned i = 0; i < n; ++i) step();
  }

  /// Load every register with its init value and clear memories to zero
  /// (power-on reset).
  void reset();
  /// Power-on reset via the engine's construction-time arena snapshot
  /// (tape/native modes: one copy, inputs return to 0); the interpreter
  /// falls back to reset().  run_batch uses this to recycle one engine
  /// across stimulus blocks.
  void restore_poweron();

  std::uint64_t cycle_count() const noexcept;

  /// Run counters in the gate::Simulator::Stats style; interpreter mode
  /// reports cycles only.
  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t nodes_evaluated = 0;
    std::uint64_t levels_evaluated = 0;
    std::uint64_t levels_skipped = 0;
    std::uint32_t tape_len = 0;
    /// The byte arena of width-classed slots in 8-byte words, rounded up.
    std::uint32_t arena_words = 0;
    std::uint32_t levels = 0;
    std::uint32_t const_folded = 0;
    std::uint32_t pruned = 0;
    std::uint32_t fused = 0;
  };
  Stats stats() const;

  /// The compiled program (tape/native mode only; throws otherwise).
  /// Mutable so tests can corrupt instructions and prove CoSim catches a
  /// broken tape.
  tape::Program& tape();

  /// The tape engine (kNative only; throws otherwise) — exposes
  /// native()/compile_log() for tests and diagnostics.
  tape::NativeEngine& native();

  /// Direct memory inspection for tests (word index).
  Bits mem_word(unsigned mem_index, unsigned word);
  void poke_mem(unsigned mem_index, unsigned word, const Bits& value);
  /// Direct register override for fault-injection tests.
  void poke_reg(const std::string& name, const Bits& value);

private:
  const Module m_;
  const SimMode mode_;
  const unsigned lanes_;
  std::unordered_map<std::string, std::uint32_t> input_index_;
  std::unordered_map<std::string, std::uint32_t> output_index_;

  // --- tape engine (mode_ == kTape or kNative) ---------------------------
  std::unique_ptr<tape::NativeEngine> engine_;

  // --- interpreter state (mode_ == kInterp) ------------------------------
  std::vector<NodeId> order_;
  std::vector<Bits> values_;           // per node
  std::vector<Bits> reg_state_;        // per register
  std::vector<std::vector<Bits>> mem_state_;
  std::vector<Bits> input_values_;     // per input port index
  bool dirty_ = true;
  std::uint64_t cycles_ = 0;

  void eval();
  Bits compute(const Node& n) const;
  void check_lane(unsigned lane) const;
  unsigned input_width(std::uint32_t index) const {
    return m_.node(m_.inputs()[index].node).width;
  }
};

/// Evaluate independent stimulus blocks of `m` across a pool (nullptr =
/// par::Pool::global()).  Same contract as gate::run_batch: each block runs
/// from power-on reset; per cycle the runner drives every input slot, steps,
/// then samples every output slot into block.out.
///
/// Blocks use the par::StimulusBlock lane-word layout (bit i of the ports
/// concatenated in module declaration order at ceil(lanes / 64)
/// consecutive slots).  Every mode runs one-lane blocks; kTape also runs
/// 64-lane blocks and kNative any multiple of 64 up to tape::kMaxLanes.
///
/// Bit-identical for every pool size.  Throws std::invalid_argument on
/// malformed blocks.
void run_batch(const Module& m, SimMode mode,
               std::span<par::StimulusBlock> blocks,
               par::Pool* pool = nullptr);

}  // namespace osss::rtl
