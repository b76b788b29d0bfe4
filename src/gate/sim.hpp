// sim.hpp — gate-level simulator with three evaluation engines.
//
// Simulates a mapped netlist the way a conventional HDL simulator simulates
// a post-synthesis netlist.  Three engines share one value store:
//
//   * kEvent:       per-gate evaluation driven by value-change events (the
//                   classic event wheel; slowest, the paper's conventional
//                   netlist-simulator stand-in for R7);
//   * kLevelized:   two-pass levelized sweep — cells are grouped by logic
//                   depth at construction and each clock phase re-evaluates
//                   only levels whose inputs changed (quiescent levels are
//                   skipped wholesale);
//   * kBitParallel: the levelized schedule with 64 stimulus lanes packed
//                   into one std::uint64_t per net, so every sweep advances
//                   64 independent vectors — this is what lets random-vector
//                   equivalence checking and the R7 bench amortize the
//                   netlist walk across a whole stimulus batch.
//   * kNative:      the netlist compiled to specialized C++ at runtime
//                   (gate/codegen.hpp) and dlopen'd, with an interpreted
//                   fallback when no compiler is available.  Extends the
//                   bit-parallel scheme past 64 lanes (multiples of 64 up
//                   to kMaxLanes) with SIMD lane words, and folds the DFF/
//                   memory commit into the generated step().
//
// All topology (fanout, DFF bindings, memory write ports, level schedule)
// is precomputed once in the constructor; the per-cycle hot path performs
// no allocation.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gate/codegen.hpp"
#include "gate/netlist.hpp"
#include "par/batch.hpp"

namespace osss::par {
class Pool;
}

namespace osss::gate {

/// Evaluation engine selection (fixed per Simulator instance).
enum class SimMode : std::uint8_t {
  kEvent,        ///< scalar, event-driven
  kLevelized,    ///< scalar, level-sweep with quiescent-level skipping
  kBitParallel,  ///< 64-lane level-sweep (one stimulus vector per lane)
  kNative,       ///< generated native code / interpreted fallback (wide lanes)
};

const char* sim_mode_name(SimMode m);

class Simulator {
public:
  /// Stimulus lanes carried per net in kBitParallel mode.
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
  /// kMaxLanes); the other modes fix their lane count and accept 0 or the
  /// implied value.  `codegen` tunes the native backend and is ignored by
  /// the interpreted modes.
  explicit Simulator(Netlist nl, SimMode mode = SimMode::kEvent,
                     unsigned lanes = 0, CodegenOptions codegen = {});

  SimMode mode() const noexcept { return mode_; }
  /// Stimulus lanes carried per net (1, 64, or the kNative lane count).
  unsigned lanes() const noexcept {
    return native_ ? native_->lanes()
                   : (mode_ == SimMode::kBitParallel ? kLanes : 1);
  }
  /// Words per lane group: ceil(lanes / 64).
  unsigned lane_words() const noexcept {
    return native_ ? native_->lane_words() : 1;
  }

  /// Drive an input bus.  In kBitParallel mode the value is broadcast to
  /// all 64 lanes.
  void set_input(const std::string& bus, const Bits& value);
  /// Convenience overload; throws if `value` has bits beyond the bus width.
  void set_input(const std::string& bus, std::uint64_t value);
  /// Drive an input bus with distinct per-lane vectors: bus bit i occupies
  /// lane_words() consecutive elements starting at bit_lanes[i *
  /// lane_words()] (for <= 64 lanes, `bit_lanes[i]` is simply the lane word
  /// of bit i).  kBitParallel and kNative modes only.  Accepts any
  /// contiguous storage without copying — batch runners pass block memory
  /// directly.
  void set_input_lanes(const std::string& bus,
                       std::span<const std::uint64_t> bit_lanes);
  /// Drive an input bus with one value per lane — values[l] = lane l,
  /// truncated to the bus width (kNative mode, <= 64-bit buses).  The gate
  /// arena is bit-sliced, so this transposes the values into lane words
  /// (par::values_to_lane_words) instead of the caller doing it bit by bit.
  void set_input_values(const std::string& bus,
                        std::span<const std::uint64_t> values);

  /// Output bus value (lane 0 in the multi-lane modes).
  Bits output(const std::string& bus) const;
  /// Output bus value of one stimulus lane (throws std::logic_error when
  /// lane >= lanes()).
  Bits output_lane(const std::string& bus, unsigned lane) const;
  /// All lanes of an output bus: bit i occupies lane_words() consecutive
  /// elements (for <= 64 lanes, element i holds the lanes of bit i).
  std::vector<std::uint64_t> output_words(const std::string& bus) const;
  /// One value per lane of an output (kNative mode, <= 64-bit buses); the
  /// inverse of set_input_values.
  std::vector<std::uint64_t> output_values(const std::string& bus) const;

  bool net(NetId id) const {
    return ((native_ ? native_->net_word(id) : values_[id]) & 1u) != 0;
  }
  std::uint64_t net_lanes(NetId id) const {
    return native_ ? native_->net_word(id) : values_[id];
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
  /// snapshot when available (one copy, no settle sweep); interpreted
  /// modes fall back to reset().  run_batch uses this to recycle one
  /// engine across stimulus blocks.
  void restore_poweron();

  const Stats& stats() const noexcept;
  /// Total gate evaluations performed (the activity measure).
  std::uint64_t event_count() const noexcept { return stats().events; }
  std::uint64_t cycle_count() const noexcept { return stats().cycles; }

  /// Direct memory access for tests (lane 0 in the multi-lane modes; pokes
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
  std::uint64_t lane_mask_;  ///< 1 in scalar modes, all-ones in kBitParallel

  std::vector<std::uint64_t> values_;  ///< one word of lanes per net

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

  // Level schedule: level l spans
  // level_cells_[level_offset_[l] .. level_offset_[l+1]).
  std::vector<std::uint32_t> level_of_;  ///< per cell; kNoLevel for sources
  std::vector<std::uint32_t> level_offset_;
  std::vector<NetId> level_cells_;
  std::vector<char> level_dirty_;
  // Distinct fanout levels of net n (for dirty marking):
  // flevels_[flevel_offset_[n] .. flevel_offset_[n+1]).
  std::vector<std::uint32_t> flevel_offset_;
  std::vector<std::uint32_t> flevels_;

  // Memories: mem_[m][addr * width + bit] is a word of lanes.
  std::vector<std::vector<NetId>> memq_cells_;  // read-data cells per memory
  std::vector<std::vector<std::uint64_t>> mem_;
  std::vector<WritePortRef> wports_;
  std::vector<NetId> wp_nets_;           ///< flattened en/addr/data nets
  std::vector<std::uint64_t> wp_samp_;   ///< pre-edge samples (scratch)

  // Event engine.
  std::vector<NetId> queue_;
  std::vector<char> queued_;

  // Native backend (mode_ == kNative); when set, every public entry point
  // delegates and the interpreter state above stays empty.
  std::unique_ptr<NativeEngine> native_;

  mutable Stats stats_;  ///< mutable: stats() folds in native run counters

  const Bus& find_bus(const std::vector<Bus>& buses,
                      const std::string& name) const;
  std::uint64_t eval_cell(NetId id) const;
  std::uint64_t eval_memq(const Cell& c) const;
  std::uint64_t addr_of(const std::vector<NetId>& addr_nets,
                        unsigned lane) const;
  void on_net_changed(NetId id);   ///< schedule fanout of a changed net
  void wake_cell(NetId cell);      ///< schedule re-evaluation of one cell
  void propagate();                ///< settle combinational logic
  void propagate_events();
  void sweep_levels();
  void full_eval();
  void sample_writes();
  void commit_writes();
};

/// Evaluate independent stimulus blocks of `nl` across a pool (nullptr =
/// par::Pool::global()).  Each block runs from power-on reset; per cycle the
/// runner drives every input slot, steps, then samples every output slot
/// into block.out.
///
/// Scalar blocks (lanes == 1): slot s is input/output bus s in netlist
/// declaration order, values masked to the bus width.  Lane blocks (lanes a
/// multiple of 64; kBitParallel accepts exactly 64, kNative up to
/// Simulator::kMaxLanes): bit i of the buses concatenated LSB-first
/// occupies lanes/64 consecutive slots — in_slots must equal the summed
/// input widths times lanes/64, each element one 64-lane word.
///
/// Block results depend only on the block's own stimulus, so the batch is
/// bit-identical for every pool size.  Throws std::invalid_argument on
/// malformed blocks.
void run_batch(const Netlist& nl, SimMode mode,
               std::span<par::StimulusBlock> blocks,
               par::Pool* pool = nullptr);

}  // namespace osss::gate
