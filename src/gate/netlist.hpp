// netlist.hpp — technology-mapped gate-level netlist.
//
// The final artefact of both design flows in the paper is "an netlist" of
// gates produced by synthesis (its Fig. 6).  This netlist is bit-level:
// every cell drives exactly one net, so a cell index doubles as its output
// net id.  Construction is *optimizing*: the factory functions constant-fold,
// simplify trivial identities and structurally hash (strash), so logically
// identical subcircuits share gates — this is what makes the paper's
// "class/template resolution adds no logic" claim measurable (experiment R4:
// identical RTL in class-resolved and hand-written form maps to the same
// gate count).
//
// Memories are kept as macro blocks (SRAM-macro style) rather than exploded
// into flip-flops, matching how a 2004 ASIC flow would treat the ExpoCU's
// histogram RAM.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sysc/bits.hpp"

namespace osss::gate {

using sysc::Bits;

using NetId = std::uint32_t;
constexpr NetId kInvalidNet = static_cast<NetId>(-1);

/// Level assigned to non-combinational cells by Netlist::topo_levels().
constexpr std::uint32_t kNoLevel = static_cast<std::uint32_t>(-1);

enum class CellKind : std::uint8_t {
  kConst0,
  kConst1,
  kInput,  ///< primary input bit
  kBuf,
  kInv,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kXnor2,
  kMux2,  ///< ins = {sel, then, else}
  kDff,   ///< ins = {d}; `init` is the reset value
  kMemQ,  ///< macro-memory read data bit; ins = address nets; param/param2
};

const char* cell_kind_name(CellKind k);

/// Combinational logic kinds: kBuf .. kMux2, contiguous in CellKind.
constexpr bool is_logic(CellKind k) {
  return k >= CellKind::kBuf && k <= CellKind::kMux2;
}

/// Input count of a cell kind; -1 for kMemQ, whose address width varies.
constexpr int arity(CellKind k) {
  switch (k) {
    case CellKind::kConst0:
    case CellKind::kConst1:
    case CellKind::kInput: return 0;
    case CellKind::kBuf:
    case CellKind::kInv:
    case CellKind::kDff: return 1;
    case CellKind::kMux2: return 3;
    case CellKind::kMemQ: return -1;
    default: return 2;
  }
}

/// Word-parallel value of a logic cell of kind `k`: in(i) is the word of
/// input i (read only for the kind's inputs) and `ones` the all-ones word
/// of the caller's lanes.  Inversions flip exactly the bits of `ones`, so
/// operands must carry no bits outside it.  W is any unsigned word or
/// bool; non-logic kinds give 0.
template <class W, class In>
constexpr W eval_cell(CellKind k, In in, W ones) {
  switch (k) {
    case CellKind::kBuf: return static_cast<W>(in(0));
    case CellKind::kInv: return static_cast<W>(in(0) ^ ones);
    case CellKind::kAnd2: return static_cast<W>(in(0) & in(1));
    case CellKind::kOr2: return static_cast<W>(in(0) | in(1));
    case CellKind::kNand2: return static_cast<W>((in(0) & in(1)) ^ ones);
    case CellKind::kNor2: return static_cast<W>((in(0) | in(1)) ^ ones);
    case CellKind::kXor2: return static_cast<W>(in(0) ^ in(1));
    case CellKind::kXnor2: return static_cast<W>(in(0) ^ in(1) ^ ones);
    case CellKind::kMux2: {
      const W s = static_cast<W>(in(0));
      return static_cast<W>((s & in(1)) | ((s ^ ones) & in(2)));
    }
    default: return W{};
  }
}

struct Cell {
  CellKind kind = CellKind::kConst0;
  std::vector<NetId> ins;
  bool init = false;       ///< kDff reset value
  std::uint32_t param = 0;   ///< kMemQ: memory index
  std::uint32_t param2 = 0;  ///< kMemQ: data bit index
  std::string name;          ///< debug name (inputs, dffs)
};

/// A macro memory block: asynchronous read ports, synchronous write ports.
struct MemMacro {
  std::string name;
  unsigned depth = 0;
  unsigned width = 0;
  struct WritePort {
    std::vector<NetId> addr;
    std::vector<NetId> data;
    NetId enable = kInvalidNet;
  };
  std::vector<WritePort> writes;
};

/// A named bus of nets (ports are grouped bit vectors, LSB first).
struct Bus {
  std::string name;
  std::vector<NetId> nets;
};

/// One structural rule a netlist breaks (Netlist::violations()).
struct Violation {
  enum class Kind : std::uint8_t {
    kCell,       ///< cell `index` has the wrong input count or memory read
    kDangling,   ///< input `sub` of cell `index` references no cell
    kWritePort,  ///< write port `sub` of memory `index` is malformed
    kOutput,     ///< bit `sub` of output bus `index` references no cell
  };
  Kind kind = Kind::kCell;
  std::uint32_t index = 0;
  std::uint32_t sub = 0;
  std::string message;
  std::string note;
};

class Netlist {
public:
  explicit Netlist(std::string name) : name_(std::move(name)) {
    // Net 0 / net 1 are the constants, always present.
    cells_.push_back(Cell{CellKind::kConst0, {}, false, 0, 0, ""});
    cells_.push_back(Cell{CellKind::kConst1, {}, false, 0, 0, ""});
  }

  const std::string& name() const noexcept { return name_; }
  const std::vector<Cell>& cells() const noexcept { return cells_; }
  const Cell& cell(NetId id) const { return cells_.at(id); }
  const std::vector<MemMacro>& memories() const noexcept { return mems_; }
  const std::vector<Bus>& inputs() const noexcept { return inputs_; }
  const std::vector<Bus>& outputs() const noexcept { return outputs_; }

  // --- construction --------------------------------------------------------
  NetId const0() const noexcept { return 0; }
  NetId const1() const noexcept { return 1; }
  NetId constant(bool v) const noexcept { return v ? 1 : 0; }

  /// Declare a `width`-bit input bus; returns its nets (LSB first).
  std::vector<NetId> add_input(const std::string& name, unsigned width);
  /// Declare an output bus driving the given nets (LSB first).
  void add_output(const std::string& name, std::vector<NetId> nets);

  // Optimizing gate factories (fold constants, simplify, strash).
  NetId buf(NetId a) { return a; }  ///< buffers vanish structurally
  NetId inv(NetId a);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId nand2(NetId a, NetId b) { return inv(and2(a, b)); }
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b) { return inv(xor2(a, b)); }
  NetId mux2(NetId sel, NetId t, NetId e);

  NetId dff(const std::string& name, bool init = false);
  /// Connect a flip-flop's D input (must be called exactly once per DFF).
  void connect_dff(NetId q, NetId d);

  unsigned add_memory(const std::string& name, unsigned depth, unsigned width);
  /// Create an asynchronous read port; returns `width` data nets.
  std::vector<NetId> mem_read(unsigned mem, const std::vector<NetId>& addr);
  void mem_write(unsigned mem, std::vector<NetId> addr, std::vector<NetId> data,
                 NetId enable);

  // --- optimizer interface ---------------------------------------------------
  // The src/opt pass pipeline edits netlists through these three primitives.
  // They bypass the simplifying factories on purpose: the technology mapper
  // must be able to place kNand2/kNor2/kXnor2 cells the factories decompose,
  // and pass rebuilds re-emit kMemQ bits one at a time.

  /// Emit a combinational gate of exactly `kind` (kBuf..kMux2), deduplicated
  /// via structural hashing but with NO constant folding or simplification.
  /// Throws std::logic_error on non-logic kinds or arity mismatch.
  NetId raw_gate(CellKind kind, std::vector<NetId> ins);

  /// One read-data bit of a macro memory (bit index `bit` of a `width`-wide
  /// read port at `addr`); the pass rebuild uses it to re-emit kMemQ cells.
  NetId mem_read_bit(unsigned mem, std::vector<NetId> addr, unsigned bit);

  /// Redirect every reader of `from` — cell inputs, DFF D pins, memory
  /// write ports and outputs — to `to`.  `from` itself is left in place
  /// (sweep() removes it once dead).  Invalidates structural hashing.
  void replace_net(NetId from, NetId to);

  /// Replace an input bus with internal nets (used when stitching IP at
  /// netlist level: the wrapper's placeholder input is rebound to the IP's
  /// outputs).  Every user of the old input bits is rewired; the bus is
  /// removed from the port list.
  void rebind_input(const std::string& name, const std::vector<NetId>& nets);

  /// Instantiate another netlist inside this one (VHDL-IP integration at
  /// netlist level, paper Fig. 6).  `bindings` maps the IP's input bus names
  /// to nets of this netlist; returns the IP's output buses mapped into this
  /// netlist.
  std::map<std::string, std::vector<NetId>> instantiate(
      const Netlist& ip, const std::string& instance_name,
      const std::map<std::string, std::vector<NetId>>& bindings);

  // --- queries ---------------------------------------------------------------
  /// Cells that actually exist in silicon, by kind, counting only logic
  /// reachable from outputs / state (after sweep()).
  std::map<CellKind, std::size_t> cell_histogram() const;
  std::size_t dff_count() const;
  std::size_t gate_count() const;  ///< combinational cells excl. const/input

  /// Fault injection for verification suites: replace the kind of a
  /// combinational logic cell with another of identical arity (e.g.
  /// kAnd2 -> kOr2, kInv -> kBuf).  The mutant is only meant to be
  /// simulated — structural hashing invariants no longer hold, so do not
  /// keep building gates on a mutated netlist.  Throws std::logic_error
  /// on non-logic cells or arity mismatch.
  void mutate_cell(NetId id, CellKind new_kind);

  /// Every structural rule the netlist breaks, cells first, then write
  /// ports and output bits.  Never throws or reads out of range.
  std::vector<Violation> violations() const;

  /// Throws std::logic_error with the first violation's message, then
  /// checks combinational acyclicity (see topo_order).
  void validate() const;

  /// Topological order of combinational cells (sources excluded).
  std::vector<NetId> topo_order() const;

  /// Logic depth of every combinational cell: 0 for cells fed only by
  /// sources (constants, inputs, DFF outputs), else 1 + max input level.
  /// Sources themselves get kNoLevel.  Used by the native engine's level
  /// schedule.
  std::vector<std::uint32_t> topo_levels() const;

  /// The cells sweep() keeps: constants, inputs and all the outputs read,
  /// through DFFs and read memories' write ports (bad references skipped).
  std::vector<bool> live_cells() const;

  /// Remove logic not reachable from any output, DFF input or memory write
  /// port (every cell live_cells() leaves unmarked).  Returns the number of
  /// cells removed.  Net ids are NOT preserved.
  std::size_t sweep();

  std::string dump() const;

private:
  std::string name_;
  std::vector<Cell> cells_;
  std::vector<MemMacro> mems_;
  std::vector<Bus> inputs_;
  std::vector<Bus> outputs_;
  std::unordered_map<std::uint64_t, std::vector<NetId>> strash_;

  NetId emit(CellKind kind, std::vector<NetId> ins);
  NetId strash_lookup(CellKind kind, const std::vector<NetId>& ins);
  friend class Simulator;
  friend class Timing;
  friend struct NetlistSurgeon;
};

/// Number of reader pins of every net: cell inputs, DFF D pins, memory
/// write-port pins and output-bus bits all count.  fanout[n] == 1 means the
/// net has exactly one consumer — the gate a local rewrite may absorb.
std::vector<std::uint32_t> fanout_counts(const Netlist& nl);

/// Raw access to a netlist's cells, bypassing the optimizing factories.
/// Exists for the lint subsystem's test vectors (combinational loops and
/// floating inputs cannot be built through the factory API).  A mutated
/// netlist may violate every structural invariant: violations() lists what
/// it breaks, lint reports it, and validate() — which the simulators call
/// first — throws on it.  Don't build on it.
struct NetlistSurgeon {
  static std::vector<Cell>& cells(Netlist& nl) { return nl.cells_; }
  static std::vector<MemMacro>& memories(Netlist& nl) { return nl.mems_; }
  static std::vector<Bus>& outputs(Netlist& nl) { return nl.outputs_; }
};

}  // namespace osss::gate
