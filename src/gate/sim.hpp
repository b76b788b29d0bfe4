// sim.hpp — gate-level simulator with two evaluation engines.
//
// Simulates a mapped netlist the way a conventional HDL simulator simulates
// a post-synthesis netlist.  Each Simulator runs one of two engines:
//
//   * kEvent:  scalar per-gate evaluation driven by value-change events
//              (the classic event wheel).  It is the oracle the other
//              engine is checked against, and the paper's conventional
//              netlist-simulator stand-in for R7;
//   * kNative: the netlist compiled to specialized C++ at runtime
//              (gate/codegen.hpp) and dlopen'd, at 1 lane or a multiple
//              of 64 up to kMaxLanes.  Lanes are independent stimulus
//              vectors, bit-sliced into 64-lane words per net, and the
//              DFF/memory commit is folded into the generated step().
//              When the JIT is off (CodegenOptions::force_fallback,
//              OSSS_NO_JIT) or no compiler is present, the same engine
//              runs its interpreted level sweep at the same lane count —
//              the one lane interpreter, bit-identical to the native code.
//
// The event engine's topology (fanout, DFF bindings, memory write ports,
// evaluation order) is precomputed once in the constructor; the per-cycle
// hot path performs no allocation.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gate/codegen.hpp"
#include "gate/netlist.hpp"
#include "par/batch.hpp"

namespace osss::gate {

/// Evaluation engine selection (fixed per Simulator instance).
enum class SimMode : std::uint8_t {
  kEvent,   ///< scalar, event-driven (the oracle)
  kNative,  ///< generated native code / interpreted level sweep, 1-512 lanes
};

const char* sim_mode_name(SimMode m);

class Simulator {
public:
  /// Default kNative lane count: one 64-lane word per net.
  static constexpr unsigned kLanes = 64;
  /// Upper lane bound in kNative mode (multiples of 64).
  static constexpr unsigned kMaxLanes = NativeEngine::kMaxLanes;

  /// Engine internals, exposed so benches report activity instead of just
  /// wall-clock (R7).
  struct Stats {
    std::uint64_t events = 0;            ///< gate evaluations performed
    std::uint64_t cycles = 0;            ///< clock edges stepped
    std::uint64_t queue_high_water = 0;  ///< kEvent: max outstanding events
    std::uint64_t levels_evaluated = 0;  ///< level sweeps that did work
    std::uint64_t levels_skipped = 0;    ///< quiescent levels skipped
  };

  /// Takes the netlist by value: the simulator owns its design, so
  /// `Simulator sim(lower_to_gates(m))` is safe.  `lanes` only applies to
  /// SimMode::kNative (0 = 64; otherwise 1 or a multiple of 64 up to
  /// kMaxLanes); kEvent carries one lane and accepts 0 or 1.  `codegen`
  /// tunes the native backend and is ignored by kEvent.
  explicit Simulator(Netlist nl, SimMode mode = SimMode::kEvent,
                     unsigned lanes = 0, CodegenOptions codegen = {});

  // The native engine points at nl_, so a Simulator never moves.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimMode mode() const noexcept { return mode_; }
  const Netlist& netlist() const noexcept { return nl_; }
  /// Stimulus lanes carried per net (1 for kEvent, the kNative lane count).
  unsigned lanes() const noexcept { return native_ ? native_->lanes() : 1; }
  /// Words per lane group: ceil(lanes / 64).
  unsigned lane_words() const noexcept {
    return native_ ? native_->lane_words() : 1;
  }

  /// Drive an input bus.  In kNative mode the value is broadcast to all
  /// lanes.
  void set_input(const std::string& bus, const Bits& value);
  /// Convenience overload; throws if `value` has bits beyond the bus width.
  void set_input(const std::string& bus, std::uint64_t value);
  /// Drive an input bus with distinct per-lane vectors, in either mode: bus
  /// bit i occupies lane_words() consecutive elements starting at
  /// bit_lanes[i * lane_words()], lane l in bit l % 64 of element l / 64
  /// (for <= 64 lanes, `bit_lanes[i]` is simply the lane word of bit i; the
  /// event engine's one lane is its bit 0).  Bits of lanes past lanes() are
  /// ignored; a size other than the bus width times lane_words() throws
  /// std::logic_error.  Accepts any contiguous storage without copying —
  /// batch runners pass block memory directly.
  void set_input_lanes(const std::string& bus,
                       std::span<const std::uint64_t> bit_lanes);
  /// Drive an input bus with one value per lane — values[l] = lane l,
  /// truncated to the bus width (kNative mode, <= 64-bit buses).  The gate
  /// arena is bit-sliced, so this transposes the values into lane words
  /// (par::values_to_lane_words) instead of the caller doing it bit by bit.
  void set_input_values(const std::string& bus,
                        std::span<const std::uint64_t> values);

  /// Output bus value (lane 0 in kNative mode).
  Bits output(const std::string& bus) const;
  /// Output bus value of one stimulus lane (throws std::logic_error when
  /// lane >= lanes()).
  Bits output_lane(const std::string& bus, unsigned lane) const;
  /// All lanes of an output bus in set_input_lanes' layout: bit i occupies
  /// lane_words() consecutive elements (for <= 64 lanes, element i holds
  /// the lanes of bit i); bits of lanes past lanes() are zero.
  std::vector<std::uint64_t> output_words(const std::string& bus) const;
  /// One value per lane of an output (kNative mode, <= 64-bit buses); the
  /// inverse of set_input_values.
  std::vector<std::uint64_t> output_values(const std::string& bus) const;

  /// Lane 0 of net `id`.
  bool net(NetId id) const { return (net_lanes(id) & 1u) != 0; }
  /// Lane word `word` of net `id` (bit l of word w = lane 64w + l).  Throws
  /// std::out_of_range unless id < the cell count and word < lane_words().
  std::uint64_t net_lanes(NetId id, unsigned word = 0) const {
    if (native_) return native_->net_word(id, word);
    if (id >= values_.size() || word != 0) throw_bad_net(id, word);
    return values_[id];
  }

  /// One rising clock edge: DFFs sample, memory writes commit, changes
  /// propagate until quiescent.
  void step();
  void step(unsigned n) {
    for (unsigned i = 0; i < n; ++i) step();
  }

  /// Asynchronous power-on reset: every DFF to its init value.
  void reset();
  /// Power-on reset via the native backend's construction-time arena
  /// snapshot (one copy, no settle sweep); kEvent falls back to reset().
  /// run_batch uses this to recycle one engine across stimulus blocks.
  void restore_poweron();

  const Stats& stats() const noexcept;
  /// Total gate evaluations performed (the activity measure).
  std::uint64_t event_count() const noexcept { return stats().events; }
  std::uint64_t cycle_count() const noexcept { return stats().cycles; }

  /// Direct memory access for tests (lane 0 in kNative mode; pokes
  /// broadcast to all lanes).
  Bits mem_word(unsigned mem, unsigned word) const;
  void poke_mem(unsigned mem, unsigned word, const Bits& value);

  /// The native backend (kNative only; throws otherwise) — exposes
  /// native()/compile_log() for tests and diagnostics.
  NativeEngine& native();
  const NativeEngine& native() const;

private:
  /// Cached write-port topology: samples live at
  /// `wp_samp_[base]` = enable, `[base+1 .. base+addr_n]` = address nets,
  /// `[base+1+addr_n .. +width]` = data nets.
  struct WritePortRef {
    std::uint32_t mem = 0;
    std::uint32_t base = 0;
    std::uint32_t addr_n = 0;
    std::uint32_t width = 0;
  };

  const Netlist nl_;
  SimMode mode_;

  std::vector<std::uint64_t> values_;  ///< one bit per net (kEvent)

  // CSR fanout arena: combinational users of net n are
  // fanout_[fanout_offset_[n] .. fanout_offset_[n+1]).
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<NetId> fanout_;

  // Sequential elements cached once at construction.
  struct DffBind {
    NetId q;
    NetId d;
    bool init;
  };
  std::vector<DffBind> dffs_;
  std::vector<std::uint64_t> dff_next_;  ///< scratch, one word per DFF

  /// Combinational cells in topological order (the reset settle sweep).
  std::vector<NetId> order_;

  // Memories: mem_[m][addr * width + bit] is one bit.
  std::vector<std::vector<NetId>> memq_cells_;  // read-data cells per memory
  std::vector<std::vector<std::uint64_t>> mem_;
  std::vector<WritePortRef> wports_;
  std::vector<NetId> wp_nets_;           ///< flattened en/addr/data nets
  std::vector<std::uint64_t> wp_samp_;   ///< pre-edge samples (scratch)

  // Event queue.
  std::vector<NetId> queue_;
  std::vector<char> queued_;

  // Native backend (mode_ == kNative); when set, every public entry point
  // delegates and the event-engine state above stays empty.
  std::unique_ptr<NativeEngine> native_;

  mutable Stats stats_;  ///< mutable: stats() folds in native run counters

  [[noreturn]] static void throw_bad_net(NetId id, unsigned word);
  /// Index of bus `name` in `buses`: the one port-name lookup.
  unsigned find_bus(const std::vector<Bus>& buses,
                    const std::string& name) const;
  std::uint64_t eval_cell(NetId id) const;
  std::uint64_t eval_memq(const Cell& c) const;
  /// Store input net `net`'s value; schedule its fanout if it changed.
  void drive(NetId net, std::uint64_t v);
  void on_net_changed(NetId id);   ///< schedule fanout of a changed net
  void wake_cell(NetId cell);      ///< schedule re-evaluation of one cell
  void propagate();                ///< settle combinational logic
  void full_eval();
  void commit_writes();
};

/// Evaluate independent stimulus blocks of `nl` across a pool (nullptr =
/// par::Pool::global()).  Each block runs from power-on reset; per cycle the
/// runner drives every input slot, steps, then samples every output slot
/// into block.out.
///
/// Blocks use the par::StimulusBlock lane-word layout: bit i of the buses
/// concatenated LSB-first in netlist declaration order occupies
/// ceil(lanes / 64) consecutive slots, so in_slots must equal the summed
/// input widths times ceil(lanes / 64).  Both engines run one-lane blocks;
/// kNative also runs any multiple of 64 lanes up to Simulator::kMaxLanes.
///
/// Block results depend only on the block's own stimulus, so the batch is
/// bit-identical for every pool size.  kNative engines are built with the
/// default CodegenOptions (one JIT compile per netlist and lane count,
/// shared by every pooled engine).  Throws std::invalid_argument on
/// malformed blocks.
void run_batch(const Netlist& nl, SimMode mode,
               std::span<par::StimulusBlock> blocks,
               par::Pool* pool = nullptr);

}  // namespace osss::gate
