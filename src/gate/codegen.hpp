// codegen.hpp — native-code backend for the gate-level netlist.
//
// An interpreted gate engine pays per-cell dispatch: a switch over CellKind
// plus input-net loads for every evaluated cell.  This backend removes that
// tax the same way the rtl tape backend does — by *generating code* for one
// specific levelized Netlist:
//
//   * emit_netlist_cpp() lowers the netlist into specialized C++ — one
//     straight-line store per combinational cell with net offsets baked in
//     as literals, over a flat lane-major uint64_t arena (net n's lane
//     words at V[n*LW .. n*LW+LW)).  The generated settle runs one
//     in-order sweep from the first dirty level to the end — the level
//     schedule is topological, so recomputing the whole suffix propagates
//     every change without per-cell diff tracking; memory read ports are
//     grouped, and each group is one call of the prelude's g_mread
//     (jit::gate_memory_prelude), which sweeps one-hot row masks when the
//     row count is small against the lane count (word ops instead of
//     per-lane probes) and decodes each lane's address otherwise;
//   * the source is a list of translation units (jit::Parts) that the JIT
//     compiles concurrently and links into one object.  Part 0 holds the
//     ABI symbols, the settle's dirty scan (a hidden `gate_eval`, which
//     `osss_gate_eval` exports and `osss_gate_step` calls directly) and
//     `osss_gate_step`; the other parts hold hidden functions: level-range
//     chunks (each runs the levels from `first` on within its range, every
//     memory read group in its level) and the write-port commits, cut by
//     the fixed emitted-size budget both emitters share (jit::kPartBytes),
//     so the list never depends on the machine;
//   * the DFF and memory-write-port commit is emitted *inside* the
//     generated `osss_gate_step` entry point — the DFFs as a walk over
//     constant tables of D/Q offsets and CSR dirty marks, each write port
//     as one function whose g_mwrite call has depth and width baked in and
//     which sets the memory's dirty marks, no engine commit loop on the hot
//     path;
//   * the engine holds a jit::Runtime, shared with the rtl backend: it
//     owns the arena, memories, dirty levels, power-on snapshot and run
//     counters, binds the generated code through the content-hash object
//     cache and applies the one settle rule of both engines;
//   * when the compile is off or unavailable (force_fallback, OSSS_NO_JIT,
//     bogus $OSSS_CC, a sandboxed runner) the engine falls back to an
//     interpreted level sweep over the same LW-word arena — bit-identical
//     results.  A fallback that was not forced prints one stderr line per
//     process (jit::Runtime::bind).  That sweep is the repo's only
//     gate-level lane interpreter; with force_fallback the source is never
//     emitted.
//
// Lanes: 1 (scalar) or any multiple of 64 up to kMaxLanes (512).  A "lane
// word" packs 64 stimulus lanes of one single-bit net; 256 lanes = 4 words
// per net.  Each level's logic cells are emitted as one fused loop of
// explicit SIMD chunk stores (lane_ops_prelude: a vector-extension chunk
// whose width follows the lane-word count and the target ISA).
//
// gate::Simulator selects this backend with SimMode::kNative; the event
// engine remains the oracle (tests/gate/native_test.cpp checks the
// generated code and the fallback sweep against it, lane by lane).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gate/netlist.hpp"
#include "jit/jit.hpp"
#include "jit/runtime.hpp"

namespace osss::gate {

/// Knobs for the runtime compile step (see jit::CompileOptions); shared
/// with the rtl backend, including the OSSS_CC / OSSS_NO_JIT environment
/// hooks.
using CodegenOptions = jit::CompileOptions;

/// The level schedule and clock-edge plan of one netlist at one lane count.
/// NativeEngine derives it once and hands it to the emitter, so the
/// interpreted sweep and the generated code run the same schedule.
struct Schedule {
  /// Validates `nl`; `lanes` is 1 or a multiple of 64 up to 512 (0 = 64),
  /// else std::invalid_argument.
  Schedule(const Netlist& nl, unsigned lanes);

  unsigned lanes = 64;
  unsigned lw = 1;                  ///< lane words per net: lanes/64 (min 1)
  std::uint64_t tail_mask = ~0ull;  ///< mask of the last lane word (1 scalar)

  /// Level l evaluates level_cells[level_offset[l] .. level_offset[l+1]),
  /// ascending net ids.
  std::vector<std::uint32_t> level_offset;
  std::vector<NetId> level_cells;
  /// Dirty marks (CSR, distinct levels ascending): the levels reading each
  /// net (DFF D pins excluded) and the levels of each memory's read cells.
  std::vector<std::uint32_t> net_fl_off, net_fl;
  std::vector<std::uint32_t> mem_fl_off, mem_fl;

  std::vector<NetId> dffs;  ///< ascending net ids
  /// Clock-edge samples in the step scratch: DFF i's D pin at word i * lw,
  /// then the write ports' nets (enable, address bits, data bits, port by
  /// port) flattened in wp_nets, sample s at word (dffs.size() + s) * lw.
  struct WritePort {
    std::uint32_t mem = 0;
    std::uint32_t base = 0;  ///< first of the port's nets in wp_nets
    std::uint32_t addr_n = 0;
    std::uint32_t width = 0;
  };
  std::vector<WritePort> wports;
  std::vector<NetId> wp_nets;

  std::uint32_t levels() const noexcept {
    return static_cast<std::uint32_t>(level_offset.size() - 1);
  }
  std::size_t scratch_words() const noexcept {
    return (dffs.size() + wp_nets.size()) * lw;
  }
};

/// Generate the specialized C++ for `nl` at `lanes` stimulus lanes, as the
/// translation units jit::compile links into one object — exposed for
/// tests and for inspecting what the backend actually compiles.  Part 0
/// holds the ABI symbols, the eval dispatch and the step; the level chunks
/// and write-port commits follow.
jit::Parts emit_netlist_cpp(const Netlist& nl, unsigned lanes);
/// The same over a schedule already derived from `nl`.
jit::Parts emit_netlist_cpp(const Netlist& nl, const Schedule& s);

/// Executes a levelized netlist through generated native code (dlopen) or
/// the interpreted LW-word level sweep.  Owned by gate::Simulator behind
/// SimMode::kNative; `nl` must outlive the engine (the Simulator owns it).
///
/// Writes (set_input*, poke_mem, the clock edge's commit) only store and
/// dirty-mark; reads (output*, net_word) and step() settle first.  The
/// reads stay const: the pending settle is a cache of the written inputs,
/// so one engine must not be read from two threads at once.
class NativeEngine {
 public:
  static constexpr unsigned kMaxLanes = 512;

  NativeEngine(const Netlist& nl, unsigned lanes, CodegenOptions opt = {});
  ~NativeEngine();

  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  unsigned lanes() const noexcept { return plan_.lanes; }
  unsigned lane_words() const noexcept { return plan_.lw; }

  /// True when the dlopen'd generated code is driving eval/step; false
  /// means the interpreted fallback is active (results are identical).
  bool native() const noexcept { return rt_.native(); }
  const std::string& compile_log() const noexcept { return rt_.compile_log(); }

  using RunStats = jit::RunStats;
  const RunStats& stats() const noexcept { return rt_.stats(); }

  // `bus` indexes the netlist's inputs() or outputs() (Simulator::find_bus).

  /// Drive an input bus, broadcast to all lanes.
  void set_input(unsigned bus, const Bits& value);
  void set_input(unsigned bus, std::uint64_t value);
  /// Drive all lanes bit-sliced: bit_lanes[i*lane_words() + w] is lane word
  /// w of bus bit i (the gate::Simulator layout, generalized past 64).
  void set_input_lanes(unsigned bus, std::span<const std::uint64_t> bit_lanes);
  /// Drive one value per lane (<= 64-bit buses; values[l] is lane l,
  /// truncated to the bus width).
  void set_input_values(unsigned bus, std::span<const std::uint64_t> values);

  Bits output_lane(unsigned bus, unsigned lane) const;
  /// Lane words of an output bus: width * lane_words() elements, same
  /// layout as set_input_lanes.
  std::vector<std::uint64_t> output_words(unsigned bus) const;
  /// One value per lane of an output (<= 64-bit buses; throws otherwise).
  std::vector<std::uint64_t> output_values(unsigned bus) const;

  /// Lane word w of net id (settled; bit l%64 of word l/64 = lane l).
  std::uint64_t net_word(NetId id, unsigned word = 0) const;

  void step();
  void reset();
  /// Restore the exact post-construction state (power-on reset, all inputs
  /// at 0, settled) from a snapshot taken at construction — one arena copy
  /// instead of a reset + settle sweep.  run_batch uses this to recycle
  /// one engine across blocks.
  void restore_poweron();

  Bits mem_word(unsigned mem, unsigned word, unsigned lane = 0) const;
  void poke_mem(unsigned mem, unsigned word, const Bits& value);

 private:
  const Netlist* nl_;
  const Schedule plan_;
  /// Memories hold lane word w of data bit b of row a at [(a*width+b)*lw+w].
  /// Mutable: const reads settle first.
  mutable jit::Runtime rt_;
  std::vector<std::uint64_t> samples_;  ///< fallback step scratch

  /// Settle through the generated eval, else the interpreted sweep.
  void settle() const;
  /// The interpreted level sweep at `lw` lane words per net: a
  /// std::integral_constant 1 when the plan has one lane word (1 or 64
  /// lanes), else the plan's count.
  template <class LW>
  void sweep(LW lw) const;
  /// The clock-edge commit of DFFs and memory write ports at `lw` lane
  /// words per net (as for sweep).
  template <class LW>
  void commit(LW lw);
  /// One address per lane into addr[0 .. lanes) from `n` address bits
  /// whose lane words sit at words[i * lw .. i * lw + lw).
  void decode_addresses(const std::uint64_t* words, std::size_t n,
                        std::uint64_t* addr) const;
  /// decode_addresses over the settled address nets of read cell `c`.
  void decode_read_port(const Cell& c, std::uint64_t* addr) const;
  /// The lane words of read cell `c` at the decoded addresses `addr`
  /// (out-of-range lanes read 0).
  void read_memq(const Cell& c, const std::uint64_t* addr,
                 std::uint64_t* out) const;
  /// Store lw lane words into input net `id`; dirty-mark it if they differ.
  void store_input(NetId id, const std::uint64_t* nv);
};

}  // namespace osss::gate
