// codegen.hpp — the tape engine: one runtime, two evaluators.
//
// NativeEngine executes a compiled tape::Program (rtl/tape.hpp) for both of
// rtl::Simulator's tape modes.  Its jit::Runtime, shared with the gate
// backend, holds the lane-major arena (lane l of a node lives at offset +
// l*words), the memories, the power-on snapshot, the dirty levels, the run
// counters and the generated code; the engine adds port I/O, the
// register/memory commit, reset, pokes and node inspection.  Only eval()
// differs between the modes:
//
//   * Evaluator::kCompiled (SimMode::kNative) — emit_cpp() lowers the
//     Program into specialized C++: one straight-line block per
//     single-word instruction with arena offsets, widths, masks and shift
//     amounts baked in as literals, single-word constants inlined as
//     immediates, and the level-granular activity gating lowered to
//     guarded basic blocks over a shared `dirty` byte array.  Each
//     instruction wider than one word is a call back into the engine
//     (jit::WideFn), which runs its threaded handler, so the handlers hold
//     the one multi-word implementation.  The source is a list of
//     translation units (jit::Parts): part 0 holds the ABI symbols, the
//     step and an eval that calls the level chunks, hidden functions of
//     consecutive `if (D[level])` blocks cut by the fixed emitted-size
//     budget both emitters share (jit::kPartBytes), one part each.  The
//     engine compiles the parts concurrently with the host toolchain
//     (`$OSSS_CC`, else `c++`), links them into one shared object,
//     dlopen()s it and drives the exported `osss_tape_eval` /
//     `osss_tape_step` entry points.  When no compiler
//     is available — or compilation, dlopen or the ABI check fails, or
//     OSSS_CC points at garbage — it falls back to threaded-code dispatch
//     (saying so once per process on stderr unless the fallback was
//     forced): one specialized handler per opcode, bound per instruction
//     at construction, each running its own lane loop.  1..tape::kMaxLanes
//     lanes; the generated code walks lane groups as GCC/Clang
//     vector-extension values (8 lanes per op with AVX-512, 4 with AVX2,
//     following the cpu-probed compile flags).
//   * Evaluator::kLaneSwitch (SimMode::kTape) — never emits or compiles.
//     Each instruction runs through a per-lane switch that reads its
//     opcode at evaluation time.  1..64 lanes.  R7 measures the generated
//     code against this evaluator.
//
// The threaded handlers and the lane switch share one definition per
// opcode (the value a single-word opcode stores in one lane, and the
// multi-word implementation, one lane at a time) and one opcode dispatch;
// they differ only in the lane loop around them.  Both evaluators share
// the level sweep's activity gating and, without generated code, the C++
// register/memory commit.  Results are bit-identical across evaluators
// and against the interpreter.
//
// The clock edge, generated or not, follows Program's sampling rule: only
// the commit inputs whose arena range overlaps some register's q range
// are copied before the commits (into the generated step's scratch, or
// samples_); every other input is read in place.  The generated step's
// lane loops are lane-vector helpers over a literal word count (the JIT
// prelude's step set), and a one-word memory read is one gather driver
// (v_mread; eight lanes per instruction on AVX-512).  Input writes that
// broadcast one value (set_input, set_input_u64) compute the change over
// all lanes first, then fill.
//
// Engines whose emitted parts are byte-identical share one loaded object
// (src/jit), and the temp dir is removed when the last engine using it dies.
//
// The interpreter (SimMode::kInterp) remains the oracle:
// tests/rtl/native_test.cpp runs it against both evaluators differentially
// over the fuzz corpus and both flows' ExpoCU components.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "jit/jit.hpp"
#include "jit/runtime.hpp"
#include "rtl/tape.hpp"

namespace osss::rtl::tape {

/// Knobs for the runtime compile step (see jit::CompileOptions).  Defaults
/// resolve from the environment: `OSSS_CC` overrides the compiler (an
/// unusable value simply forces the threaded-code fallback), `OSSS_NO_JIT=1`
/// skips the compile attempt entirely.
using CodegenOptions = jit::CompileOptions;

/// Generate the specialized C++ for `p`, as the translation units
/// jit::compile links into one object — exposed for tests and for
/// inspecting what the backend actually compiles.  Part 0 holds the ABI
/// symbols, the step and the eval dispatch; the level chunks follow.
jit::Parts emit_cpp(const Program& p);

/// How an engine evaluates its tape (see the file comment).
enum class Evaluator : std::uint8_t {
  kCompiled,    ///< generated code, else threaded handlers (SimMode::kNative)
  kLaneSwitch,  ///< per-lane opcode switch, never compiles (SimMode::kTape)
};

/// Executes a compiled Program.  A "lane word" holds 64 lanes, and an
/// engine with L lanes uses lane_words() == ceil(L/64) words per port bit.
class NativeEngine {
 public:
  /// `opt` tunes the compile step and is ignored by kLaneSwitch.  Throws
  /// std::logic_error on a lane count outside the evaluator's range.
  NativeEngine(const Module& m, unsigned lanes, CodegenOptions opt = {},
               Evaluator ev = Evaluator::kCompiled);
  ~NativeEngine();

  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  Program& program() noexcept { return prog_; }
  const Program& program() const noexcept { return prog_; }
  unsigned lanes() const noexcept { return prog_.lanes; }
  unsigned lane_words() const noexcept { return lw_; }

  /// True when the dlopen'd generated code is driving eval(); false means
  /// an interpreted evaluator is active (results are identical).
  bool native() const noexcept { return rt_.native(); }
  /// Compiler/dlopen diagnostics of the last compile attempt (empty when
  /// the native path loaded cleanly or was never attempted).
  const std::string& compile_log() const noexcept { return rt_.compile_log(); }

  using RunStats = jit::RunStats;
  const RunStats& stats() const noexcept { return rt_.stats(); }

  void set_input(unsigned index, const Bits& value);
  /// Allocation-free fast path: drive all lanes with `value` truncated to
  /// the port width (any width; words above the first are cleared).
  void set_input_u64(unsigned index, std::uint64_t value);
  /// Drive all lanes of one input.  bit_lanes holds width * lane_words()
  /// elements; the lane words of input bit i live at
  /// bit_lanes[i*lane_words() .. (i+1)*lane_words()).  For lanes <= 64 this
  /// is exactly the gate::Simulator layout.
  void set_input_lanes(unsigned index,
                       std::span<const std::uint64_t> bit_lanes);
  /// Drive all lanes of one input with one value per lane (values[l] =
  /// lane l, truncated to the port width).  The arena is lane-major, so
  /// this is a straight masked copy — no bit transpose — and the fast
  /// path for per-lane stimulus.  Ports wider than 64 bits throw.
  void set_input_values(unsigned index, std::span<const std::uint64_t> values);

  /// Throws std::logic_error when lane >= lanes().
  Bits output(unsigned index, unsigned lane = 0);
  /// Allocation-free fast path: low 64 bits of an output, lane 0.
  std::uint64_t output_u64(unsigned index);
  /// Lane words of an output: width * lane_words() elements, same layout as
  /// set_input_lanes.
  std::vector<std::uint64_t> output_words(unsigned index);
  /// One value per lane of an output (<= 64-bit ports; throws otherwise).
  std::vector<std::uint64_t> output_values(unsigned index);

  /// Value of any live node.  Throws std::logic_error if the node was
  /// pruned or folded away, or when lane >= lanes().
  Bits node_value(NodeId id, unsigned lane = 0);

  /// Settle the dirty levels (reads and step() call this first).
  void eval();
  void step();
  void reset();
  /// Restore the exact post-construction state (power-on values, inputs at
  /// 0, settled) from a snapshot taken at construction; run_batch uses
  /// this to recycle one engine across stimulus blocks.
  void restore_poweron();

  /// Memory word `word` of lane 0 (pokes write every lane alike).
  Bits mem_word(unsigned mem_index, unsigned word);
  void poke_mem(unsigned mem_index, unsigned word, const Bits& value);
  void poke_reg(unsigned reg_index, const Bits& value);

 private:
  struct Exec;  // per-lane opcode definitions, handlers, dispatch (.cpp)
  using Handler = bool (*)(NativeEngine&, const Instr&);

  Program prog_;
  Evaluator ev_;
  unsigned lw_ = 1;  ///< lane words: ceil(lanes/64)
  /// Arena, memories (word w of entry a in lane l at (a * lanes + l) *
  /// words + w), dirty levels, power-on snapshot, counters and the
  /// generated code.
  jit::Runtime rt_;
  std::vector<std::uint64_t> scratch_;  ///< multi-word result staging

  // Threaded-code dispatch (kCompiled without generated code, and the
  // generated code's multi-word instructions): one bound handler per
  // instruction.
  std::vector<Handler> handlers_;

  /// Pre-edge copies of the inputs Program's sampling rule flags, laid out
  /// as the generated step's scratch (Program::sample_words).
  std::vector<std::uint64_t> samples_;

  /// The generated code's callback (jit::WideFn): instruction i of
  /// `engine` through its bound handler.
  static bool run_instr(void* engine, unsigned i) noexcept;
  template <bool kLaneSwitch>
  void sweep();
  /// Interpreted clock edge: sample what a commit could overwrite, then
  /// commit registers and memory write ports, dirty-marking what changed.
  void commit();
  /// Drive every lane of input `index` with the port-wide word pattern
  /// `word(w)`: the change over all lanes first, then the fill.
  template <class Word>
  void broadcast_input(unsigned index, Word word);
  /// kLaneSwitch: one lane of one instruction, switching on the opcode the
  /// tape holds at evaluation time.
  bool exec_one(const Instr& ins, unsigned lane);
  void check_lane(unsigned lane) const;
  void write_lane_bits(std::uint32_t off, std::uint16_t words, unsigned lane,
                       const Bits& value);
  Bits read_lane_bits(std::uint32_t off, std::uint16_t words, unsigned width,
                      unsigned lane) const;
};

}  // namespace osss::rtl::tape
