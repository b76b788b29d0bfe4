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
//     grouped and gathered through one-hot row masks when the row count is
//     small against the lane count (word ops instead of per-lane probes);
//   * the DFF and memory-write-port commit is emitted *inside* the
//     generated `osss_gate_step` entry point — sample offsets, depths,
//     widths and dirty marks baked in, no C++ commit loop on the hot path;
//   * the compile/dlopen machinery and the content-hash object cache are
//     shared with the rtl backend (src/jit): identical netlists reuse one
//     loaded object, and generated code is stateless — all mutable state
//     (value arena, memories, dirty flags, step scratch) is engine-owned
//     and passed in as parameters;
//   * when the compile is off or unavailable (force_fallback, OSSS_NO_JIT,
//     bogus $OSSS_CC, a sandboxed runner) the engine falls back *silently*
//     to an interpreted level sweep over the same LW-word arena —
//     bit-identical results.  That sweep is the repo's only gate-level
//     lane interpreter; with force_fallback the source is never emitted.
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
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gate/netlist.hpp"
#include "jit/jit.hpp"

namespace osss::gate {

/// Knobs for the runtime compile step (see jit::CompileOptions); shared
/// with the rtl backend, including the OSSS_CC / OSSS_NO_JIT environment
/// hooks.
using CodegenOptions = jit::CompileOptions;

/// Generate the specialized C++ translation unit for `nl` at `lanes`
/// stimulus lanes — exposed for tests and for inspecting what the backend
/// actually compiles.
std::string emit_netlist_cpp(const Netlist& nl, unsigned lanes);

/// Executes a levelized netlist through generated native code (dlopen) or
/// the interpreted LW-word level sweep.  Owned by gate::Simulator behind
/// SimMode::kNative; `nl` must outlive the engine (the Simulator owns it).
class NativeEngine {
 public:
  static constexpr unsigned kMaxLanes = 512;

  NativeEngine(const Netlist& nl, unsigned lanes, CodegenOptions opt = {});
  ~NativeEngine();

  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  unsigned lanes() const noexcept { return lanes_; }
  unsigned lane_words() const noexcept { return lw_; }

  /// True when the dlopen'd generated code is driving eval/step; false
  /// means the interpreted fallback is active (results are identical).
  bool native() const noexcept { return eval_fn_ != nullptr; }
  const std::string& compile_log() const noexcept { return compile_log_; }

  struct RunStats {
    std::uint64_t cycles = 0;
    std::uint64_t gate_evals = 0;        ///< fallback sweep only
    std::uint64_t levels_evaluated = 0;  ///< fallback sweep only
    std::uint64_t levels_skipped = 0;    ///< fallback sweep only
  };
  const RunStats& stats() const noexcept { return stats_; }

  /// Drive an input bus, broadcast to all lanes.
  void set_input(const std::string& bus, const Bits& value);
  void set_input(const std::string& bus, std::uint64_t value);
  /// Drive all lanes bit-sliced: bit_lanes[i*lane_words() + w] is lane word
  /// w of bus bit i (the gate::Simulator layout, generalized past 64).
  void set_input_lanes(const std::string& bus,
                       std::span<const std::uint64_t> bit_lanes);
  /// Drive one value per lane (<= 64-bit buses; values[l] is lane l,
  /// truncated to the bus width).
  void set_input_values(const std::string& bus,
                        std::span<const std::uint64_t> values);

  Bits output(const std::string& bus) const;
  Bits output_lane(const std::string& bus, unsigned lane) const;
  /// Lane words of an output bus: width * lane_words() elements, same
  /// layout as set_input_lanes.
  std::vector<std::uint64_t> output_words(const std::string& bus) const;
  /// One value per lane of an output (<= 64-bit buses; throws otherwise).
  std::vector<std::uint64_t> output_values(const std::string& bus) const;

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
  using EvalFn = void (*)(std::uint64_t*, std::uint64_t* const*,
                          unsigned char*);
  using StepFn = unsigned (*)(std::uint64_t*, std::uint64_t* const*,
                              unsigned char*, std::uint64_t*);

  struct WritePortRef {
    std::uint32_t mem = 0;
    std::uint32_t base = 0;  ///< first slot in wp_nets_ / wp_samp_
    std::uint32_t addr_n = 0;
    std::uint32_t width = 0;
  };

  const Netlist* nl_;
  unsigned lanes_ = 64;
  unsigned lw_ = 1;           ///< lane words per net: lanes/64 (min 1)
  std::uint64_t tail_mask_;   ///< mask of the last lane word (1 for scalar)

  std::vector<std::uint64_t> values_;  ///< V[net*lw_ + w]
  std::vector<std::uint64_t> poweron_values_;  ///< settled power-on arena
  std::vector<unsigned char> level_dirty_;
  RunStats stats_;

  // Level schedule + dirty-marking topology (shared by the fallback sweep
  // and the engine-side input marking; the generated code bakes its own).
  std::vector<std::uint32_t> level_of_;
  std::vector<std::uint32_t> level_offset_;
  std::vector<NetId> level_cells_;
  std::vector<std::uint32_t> flevel_offset_;
  std::vector<std::uint32_t> flevels_;

  struct DffBind {
    NetId q;
    NetId d;
    bool init;
  };
  std::vector<DffBind> dffs_;
  std::vector<std::uint64_t> dff_next_;  ///< fallback scratch, lw_ per DFF

  std::vector<std::vector<NetId>> memq_cells_;
  std::vector<std::vector<std::uint64_t>> mem_;  ///< [(a*width+b)*lw_ + w]
  std::vector<std::uint64_t*> mem_ptrs_;         ///< stable, passed to native
  std::vector<WritePortRef> wports_;
  std::vector<NetId> wp_nets_;          ///< flattened en/addr/data nets
  std::vector<std::uint64_t> wp_samp_;  ///< fallback scratch, lw_ per net

  // Native path state (shared object handle from the jit cache).
  std::shared_ptr<jit::Object> obj_;
  EvalFn eval_fn_ = nullptr;
  StepFn step_fn_ = nullptr;
  std::vector<std::uint64_t> step_scratch_;
  std::string compile_log_;

  void try_native(const CodegenOptions& opt);
  void drop_native();
  void eval();  ///< settle dirty levels (native or fallback sweep)
  void fallback_eval();
  /// The interpreted level sweep at `lw` lane words per net: a
  /// std::integral_constant 1 when lw_ is 1 (1 or 64 lanes), else lw_.
  template <class LW>
  void sweep(LW lw);
  void fallback_step();
  /// The clock-edge commit of DFFs and memory write ports at `lw` lane
  /// words per net (as for sweep).
  template <class LW>
  void commit(LW lw);
  /// One address per lane into addr[0 .. lanes_) from `n` address bits
  /// whose lane words sit at words[i * lw_ .. i * lw_ + lw_).
  void decode_addresses(const std::uint64_t* words, std::size_t n,
                        std::uint64_t* addr) const;
  /// decode_addresses over the settled address nets of read cell `c`.
  void decode_read_port(const Cell& c, std::uint64_t* addr) const;
  /// The lane words of read cell `c` at the decoded addresses `addr`
  /// (out-of-range lanes read 0).
  void read_memq(const Cell& c, const std::uint64_t* addr,
                 std::uint64_t* out) const;
  void mark_net(NetId id);  ///< dirty-mark the fanout levels of a net
  /// Store lw_ lane words into input net `id`; dirty-mark it if they differ.
  void store_input(NetId id, const std::uint64_t* nv);
  const Bus& find_bus(const std::vector<Bus>& buses,
                      const std::string& name) const;
};

}  // namespace osss::gate
