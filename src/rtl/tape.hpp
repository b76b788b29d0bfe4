// tape.hpp — RTL-IR compiled to a flat word-level instruction tape.
//
// Program::compile lowers an rtl::Module into a linear instruction stream
// over one preallocated contiguous uint64_t word arena — the Hardcaml-style
// "compiled cycle function" that makes a word-level reference simulator
// competitive with compiled-code simulation:
//
//   * every live node owns a fixed arena slot: 1 word for width <= 64,
//     ceil(width/64) words above;
//   * operands are pre-resolved arena offsets — no NodeId indirection, no
//     Bits construction, zero per-cycle allocation;
//   * single-word fast-path opcodes (the overwhelmingly common case) sit
//     beside generic multi-word forms.
//
// The compiler runs constant folding (with a deduplicated constant pool),
// zext/slice/concat alias fusion (no-op casts share their operand's slot —
// sound because the arena keeps bits above a node's width zero), slice-chain
// composition, and dead-node pruning before emission.  Instructions are
// grouped by combinational level, and per-producer fanout-level lists let
// an executor skip a level none of whose inputs changed since the last
// sweep.  L-lane programs stripe the arena per lane (lane l of a node lives
// at offset + l*words), so one sweep drives L stimulus lanes.
//
// This header is the compiler only.  One engine executes a Program
// (tape::NativeEngine, rtl/codegen.hpp) with two evaluators: generated code
// or threaded handlers for SimMode::kNative, a per-lane opcode switch for
// SimMode::kTape.  The interpreter remains the oracle both are
// differentially tested against (tests/rtl/{tape,native}_test.cpp).

#pragma once

#include <cstdint>
#include <vector>

#include "rtl/ir.hpp"

namespace osss::rtl::tape {

/// "No arena slot": pruned/folded-away nodes and absent register enables.
constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// Widest lane count Program::compile accepts.  SimMode::kTape stays
/// capped at 64 lanes; SimMode::kNative runs up to this many, with the
/// generated code walking lane groups as vectors.
constexpr unsigned kMaxLanes = 512;

/// Tape opcodes.  `*1` forms are the single-word fast path; `*N` forms
/// handle multi-word (width > 64) values.  kConcat and kMemRead are
/// width-generic.
enum class TOp : std::uint8_t {
  // single-word (result and data operands fit one word)
  kAdd1, kSub1, kMul1, kAnd1, kOr1, kXor1, kNot1,
  kShlI1, kLshrI1, kAshrI1, kShlV1, kLshrV1,
  kEq1, kNe1, kUlt1, kUle1, kSlt1, kSle1,
  kMux1, kSlice1, kSExt1, kRedOr1, kRedAnd1, kRedXor1,
  // multi-word general forms
  kCopyN,  // zext into more words: copy + zero-fill
  kAddN, kSubN, kMulN, kAndN, kOrN, kXorN, kNotN,
  kShlIN, kLshrIN, kAshrIN, kShlVN, kLshrVN,
  kEqN, kNeN, kUltN, kUleN, kSltN, kSleN,
  kMuxN, kSliceN, kSExtN, kRedOrN, kRedAndN, kRedXorN,
  // width-generic
  kConcat,   // parts pool: [param, param+c) of Program::parts, LSB first
  kMemRead,  // param = memory index; a = address slot
};

/// True for the 24 `*1` opcodes, whose result and data operands fit one
/// word per lane.  Their operands stride one word per lane, except a
/// variable shift's amount (aw words).
constexpr bool single_word(TOp op) { return op < TOp::kCopyN; }

/// One tape instruction.  Field meaning varies slightly by opcode:
///   dst       destination arena offset (lane stride = dw words)
///   a, b, c   operand arena offsets
///   dw        destination word count (also the data-operand lane stride)
///   aw        operand-a word count / lane stride; for kShlV*/kLshrV* it is
///             the word count of the *amount* operand (b); for kMux* the
///             1-bit select (a) always strides 1
///   width     destination bit width
///   a_width   operand bit width where semantics need it (compares, sext,
///             slice source, reductions)
///   param     shift amount / slice lo / memory index / parts-pool offset
///   mask      top-word mask of the destination width
struct Instr {
  TOp op = TOp::kAdd1;
  std::uint8_t dw = 1;
  std::uint8_t aw = 1;
  std::uint16_t width = 0;
  std::uint16_t a_width = 0;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t param = 0;
  std::uint64_t mask = 0;
};

/// One concatenation operand (LSB-first in the parts pool).
struct ConcatPart {
  std::uint32_t off = 0;     ///< arena offset (lane stride = words)
  std::uint16_t width = 0;
  std::uint16_t words = 1;
};

/// Compile-time statistics, exported through Simulator::Stats.
struct CompileStats {
  std::uint32_t tape_len = 0;     ///< instructions emitted
  std::uint32_t arena_words = 0;  ///< total arena size (all lanes)
  std::uint32_t levels = 0;       ///< combinational levels
  std::uint32_t const_folded = 0; ///< non-kConst nodes folded to constants
  std::uint32_t pruned = 0;       ///< dead combinational nodes dropped
  std::uint32_t fused = 0;        ///< alias + slice-chain fusions
};

/// Front-end analysis of a module: constant folding, alias/slice fusion and
/// liveness — passes 1–4 of the compiler, exposed so the lint subsystem's
/// dead-node rule (RTL-003) agrees with the pruner *by construction* rather
/// than by re-implementation.  `fate` classifies every node; the counters
/// feed CompileStats unchanged.
struct NodeAnalysis {
  enum class Fate : std::uint8_t {
    kSource,   ///< input or register output (always materialized)
    kFolded,   ///< compile-time constant (kConst or folded)
    kAliased,  ///< no-op cast sharing its representative's slot
    kLive,     ///< computed by a tape instruction
    kDead,     ///< unobservable; the compiler prunes it
  };

  std::vector<Fate> fate;     ///< per node
  std::vector<Bits> folded;   ///< per node; non-empty <=> constant value
  std::vector<NodeId> alias;  ///< per node; kInvalidNode when not aliased
  /// Per kSlice node: {ultimate source after chain composition, low bit}.
  std::vector<std::pair<NodeId, unsigned>> sliced;
  std::vector<std::vector<NodeId>> eff;  ///< post-fusion operands
  std::vector<char> live;                ///< per node (representatives)

  std::uint32_t const_folded = 0;
  std::uint32_t fused = 0;
  std::uint32_t pruned = 0;

  /// Final alias representative of a node.
  NodeId rep(NodeId id) const {
    while (alias[id] != kInvalidNode) id = alias[id];
    return id;
  }
};

/// Run the compiler front end alone (validates `m` first).
NodeAnalysis analyze(const Module& m);

/// The compiled program: instruction tape, arena layout and the
/// per-producer fanout-level lists that drive activity gating.  Members are
/// public by design — tests corrupt instructions to prove the differential
/// harness catches a broken tape (see tests/rtl/tape_test.cpp).
struct Program {
  unsigned lanes = 1;

  std::vector<Instr> instrs;  ///< grouped by level, ascending
  /// Level l owns instrs [level_offset[l], level_offset[l+1]).
  std::vector<std::uint32_t> level_offset;
  std::vector<ConcatPart> parts;

  // Fanout-level lists (CSR): which levels to mark dirty when a producer's
  // value changes.  One list per instruction, input port, register and
  // memory (memory content changes wake that memory's read levels).
  std::vector<std::uint32_t> instr_fl_off, instr_fl;
  std::vector<std::uint32_t> input_fl_off, input_fl;
  std::vector<std::uint32_t> reg_fl_off, reg_fl;
  std::vector<std::uint32_t> mem_fl_off, mem_fl;

  struct Port {
    std::uint32_t off = kNoSlot;
    std::uint16_t width = 0;
    std::uint16_t words = 1;
  };
  std::vector<Port> inputs;   ///< module input-port order
  std::vector<Port> outputs;  ///< module output-port order

  // The sampling rule.  A clock edge rewrites only register q slots (memory
  // writes never touch the arena), so a commit input (a register's next
  // value and enable, a write port's address, data and enable) needs a
  // pre-edge copy only when its arena range overlaps some register's q
  // range.  compile() gives each such input a range of the step scratch
  // (its `*_at` offset, same lane striding as in the arena); every other
  // input has kNoSlot there and is read in place by the commit.
  struct Reg {
    std::uint32_t q = kNoSlot;   ///< arena slot of the kReg node
    std::uint32_t d = kNoSlot;   ///< arena slot of the next-value input
    std::uint32_t en = kNoSlot;  ///< 1-bit enable slot; kNoSlot = always
    std::uint32_t d_at = kNoSlot;   ///< pre-edge copy of d in the scratch
    std::uint32_t en_at = kNoSlot;  ///< pre-edge copy of en in the scratch
    std::uint16_t width = 0;
    std::uint16_t words = 1;
    Bits init;
  };
  std::vector<Reg> regs;

  struct WritePort {
    std::uint32_t addr = kNoSlot;
    std::uint32_t data = kNoSlot;
    std::uint32_t en = kNoSlot;
    std::uint32_t addr_at = kNoSlot;  ///< pre-edge copies in the scratch
    std::uint32_t data_at = kNoSlot;
    std::uint32_t en_at = kNoSlot;
    std::uint16_t addr_words = 1;  ///< lane stride of the address operand
  };
  struct Mem {
    unsigned depth = 0;
    unsigned width = 0;
    std::uint16_t words = 1;
    std::vector<WritePort> writes;
  };
  std::vector<Mem> mems;

  /// Constant-pool image: (arena offset, value) pairs the engine broadcasts
  /// into every lane once at construction.
  std::vector<std::pair<std::uint32_t, Bits>> const_init;

  std::size_t arena_size = 0;  ///< words, including lane striding
  /// Step scratch words: the pre-edge copies of the sampling rule.
  std::size_t sample_words = 0;

  /// Per-node arena slot (kNoSlot when pruned) and bit width, for
  /// Simulator::get() and debugging.
  std::vector<std::uint32_t> node_slot;
  std::vector<std::uint16_t> node_width;

  CompileStats stats;

  /// Lower `m` (validated first) for `lanes` stimulus lanes (1..kMaxLanes).
  static Program compile(const Module& m, unsigned lanes = 1);
};

}  // namespace osss::rtl::tape
