// ir.hpp — register-transfer-level netlist intermediate representation.
//
// This IR is the meeting point of the two design flows the paper compares:
//
//   * the "VHDL flow": designs written directly against rtl::Builder in RTL
//     coding style (explicit registers, muxes, next-state logic);
//   * the "OSSS flow": the OSSS synthesizer + behavioral synthesis emit
//     into the same IR.
//
// A module is a DAG of combinational nodes plus registers (single implicit
// clock domain, synchronous) and synchronous-write/asynchronous-read
// memories.  From here the gate-level backend lowers to a technology
// netlist; the cycle simulator executes the IR directly.

#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sysc/bits.hpp"

namespace osss::rtl {

using sysc::Bits;

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class Op : std::uint8_t {
  kConst,    ///< literal; `value` holds the payload
  kInput,    ///< module input port
  kAdd,      ///< a + b (wraps)
  kSub,      ///< a - b (wraps)
  kMul,      ///< a * b truncated to operand width
  kAnd,
  kOr,
  kXor,
  kNot,
  kShlI,     ///< logical shift left by constant `param`
  kLshrI,    ///< logical shift right by constant `param`
  kAshrI,    ///< arithmetic shift right by constant `param`
  kShlV,     ///< logical shift left by variable amount (ins[1], any
             ///< width; shift_count has the rule)
  kLshrV,    ///< logical shift right by variable amount (ins[1], as kShlV)
  kEq,       ///< 1-bit result
  kNe,
  kUlt,
  kUle,
  kSlt,
  kSle,
  kMux,      ///< ins = {sel(1), then, else}
  kSlice,    ///< bits [param + width - 1 .. param] of ins[0]
  kConcat,   ///< ins[0] is the MOST significant chunk
  kZExt,
  kSExt,
  kRedOr,    ///< reductions, 1-bit result
  kRedAnd,
  kRedXor,
  kReg,      ///< register output; `param` indexes Module::registers()
  kMemRead,  ///< asynchronous read; `param` indexes Module::memories()
};

const char* op_name(Op op);

struct Node {
  Op op;
  unsigned width = 0;
  std::vector<NodeId> ins;
  Bits value;          ///< kConst payload
  unsigned param = 0;  ///< slice offset / shift amount / reg / mem index
  std::string name;    ///< debug name for inputs, registers, named nets
};

/// The one variable-shift rule (kShlV / kLshrV), the gate barrel
/// shifter's and Verilog's: the whole amount, read as an unsigned number
/// of any width, shifts a `width`-bit value, and an amount of `width` or
/// more shifts every bit out.  Returns the amount clamped to `width`.
unsigned shift_count(const Bits& amount, unsigned width);

/// The value of combinational node `n`, given the value of each operand
/// n.ins[i] as `in(i)` (a `const Bits&`).  The one Bits-level definition of
/// every op: the interpreter (SimMode::kInterp), the tape compiler's and
/// meta's constant folders and lint's abstract evaluator all call it, while
/// the tape engine's handlers and generated code implement each op
/// independently and are differentially tested against it.  Sources
/// (kInput, kReg, kMemRead) have no value derivable from operands: throws.
template <typename In>
Bits eval_op(const Node& n, In&& in) {
  switch (n.op) {
    case Op::kConst: return n.value;
    case Op::kAdd: return in(0) + in(1);
    case Op::kSub: return in(0) - in(1);
    case Op::kMul: return in(0) * in(1);
    case Op::kAnd: return in(0) & in(1);
    case Op::kOr: return in(0) | in(1);
    case Op::kXor: return in(0) ^ in(1);
    case Op::kNot: return ~in(0);
    case Op::kShlI: return in(0).shl(n.param);
    case Op::kLshrI: return in(0).lshr(n.param);
    case Op::kAshrI: return in(0).ashr(n.param);
    case Op::kShlV: return in(0).shl(shift_count(in(1), n.width));
    case Op::kLshrV: return in(0).lshr(shift_count(in(1), n.width));
    case Op::kEq: return Bits(1, in(0) == in(1) ? 1u : 0u);
    case Op::kNe: return Bits(1, in(0) != in(1) ? 1u : 0u);
    case Op::kUlt: return Bits(1, Bits::ult(in(0), in(1)) ? 1u : 0u);
    case Op::kUle: return Bits(1, Bits::ule(in(0), in(1)) ? 1u : 0u);
    case Op::kSlt: return Bits(1, Bits::slt(in(0), in(1)) ? 1u : 0u);
    case Op::kSle: return Bits(1, Bits::sle(in(0), in(1)) ? 1u : 0u);
    case Op::kMux: return in(0).bit(0) ? in(1) : in(2);
    case Op::kSlice: return in(0).slice(n.param + n.width - 1, n.param);
    case Op::kConcat: {
      // ins[0] is the MOST significant chunk; deposit each operand once
      // instead of re-copying an accumulator per operand.
      Bits acc(n.width);
      unsigned pos = n.width;
      for (std::size_t i = 0; i < n.ins.size(); ++i) {
        pos -= in(i).width();
        acc.set_range(pos, in(i));
      }
      return acc;
    }
    case Op::kZExt: return in(0).zext(n.width);
    case Op::kSExt: return in(0).sext(n.width);
    case Op::kRedOr: return Bits(1, in(0).is_zero() ? 0u : 1u);
    case Op::kRedAnd: return Bits(1, in(0).is_ones() ? 1u : 0u);
    case Op::kRedXor: return Bits(1, in(0).popcount() & 1u);
    case Op::kInput:
    case Op::kReg:
    case Op::kMemRead: break;
  }
  throw std::logic_error("rtl: op has no value derivable from its operands");
}

/// A synchronous register.  `enable == kInvalidNode` means always-enabled.
/// Reset is modelled by re-loading `init` (the simulator's reset() and the
/// gate backend's DFF reset pin both use it).
struct Register {
  NodeId q = kInvalidNode;       ///< the kReg node presenting the output
  NodeId d = kInvalidNode;       ///< next-value input (must be connected)
  NodeId enable = kInvalidNode;  ///< optional 1-bit clock enable
  Bits init;
  std::string name;
};

/// A memory with asynchronous read ports (kMemRead nodes) and synchronous,
/// enabled write ports.
struct Memory {
  std::string name;
  unsigned addr_width = 0;
  unsigned data_width = 0;
  unsigned depth = 0;  ///< number of words (<= 2^addr_width)
  struct WritePort {
    NodeId addr = kInvalidNode;
    NodeId data = kInvalidNode;
    NodeId enable = kInvalidNode;  ///< required for writes
  };
  std::vector<WritePort> writes;
};

struct PortRef {
  std::string name;
  NodeId node = kInvalidNode;
};

/// One structural rule a module breaks (Module::violations()).
struct Violation {
  enum class Kind : std::uint8_t {
    kNode,     ///< node `index` is malformed
    kNoReset,  ///< node `index` is a register without a reset value
    kMemory,   ///< memory `index` or one of its write ports is malformed
    kInput,    ///< input port `index` is unbound or past the last node
    kOutput,   ///< output port `index` is unbound or past the last node
  };
  Kind kind = Kind::kNode;
  std::uint32_t index = 0;
  std::string message;
};

/// Area/complexity statistics used by the experiments' reports.
struct ModuleStats {
  std::size_t comb_nodes = 0;
  std::size_t register_bits = 0;
  std::size_t memory_bits = 0;
  std::size_t mux_nodes = 0;
  std::size_t arith_nodes = 0;
  std::map<std::string, std::size_t> op_histogram;
};

class Module {
public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  const std::vector<Register>& registers() const noexcept { return regs_; }
  const std::vector<Memory>& memories() const noexcept { return mems_; }
  const std::vector<PortRef>& inputs() const noexcept { return inputs_; }
  const std::vector<PortRef>& outputs() const noexcept { return outputs_; }

  NodeId find_input(const std::string& name) const;

  /// Every structural rule the module breaks, nodes first, then memories,
  /// inputs and outputs.  Never throws or reads out of range.
  std::vector<Violation> violations() const;

  /// Throws std::logic_error with the first violation's message, then
  /// checks combinational acyclicity (see topo_order).
  void validate() const;

  /// Topological order of all nodes (sources first).  Throws on
  /// combinational cycles.
  std::vector<NodeId> topo_order() const;

  ModuleStats stats() const;

  /// Human-readable dump (one line per node) for debugging and tests.
  std::string dump() const;

private:
  friend class Builder;
  friend struct ModuleSurgeon;
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Register> regs_;
  std::vector<Memory> mems_;
  std::vector<PortRef> inputs_;
  std::vector<PortRef> outputs_;
};

/// Raw access to a module's innards, bypassing the Builder's width checks.
/// Exists for the lint subsystem's test vectors: rules like RTL-001/RTL-002
/// diagnose IR the Builder refuses to construct (combinational cycles,
/// width mismatches), so their tests need to inflict the damage directly.
/// Anything mutated through here may violate every Module invariant:
/// violations() lists what it breaks, lint reports it, and validate() —
/// which the simulators and the gate backend call first — throws on it.
struct ModuleSurgeon {
  static std::vector<Node>& nodes(Module& m) { return m.nodes_; }
  static std::vector<Register>& registers(Module& m) { return m.regs_; }
  static std::vector<Memory>& memories(Module& m) { return m.mems_; }
  static std::vector<PortRef>& inputs(Module& m) { return m.inputs_; }
  static std::vector<PortRef>& outputs(Module& m) { return m.outputs_; }
};

}  // namespace osss::rtl
