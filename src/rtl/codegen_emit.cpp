// codegen_emit.cpp — lower a compiled tape::Program into specialized C++.
//
// The output is a list of self-contained translation units (jit::Parts),
// each opening with the width-class prelude (lane vectors per class whose
// width follows the flags the host compile passes) and only the helpers its
// code calls.  The code is one straight-line statement per tape
// instruction, grouped into `if (D[level])` guarded basic blocks that
// mirror the interpreter's level-granular activity gating.  Consecutive
// blocks form hidden chunk functions `tape_levels_<k>`, one part each, cut
// once a chunk's code reaches jit::kPartBytes, each with the drivers its
// statements call; part 0 holds the ABI symbols, `osss_tape_step` (with the
// step helper set) and an `osss_tape_eval` that calls the chunks in order,
// and the jit compiles the parts concurrently.  Arena byte offsets, classes,
// widths, masks, shift amounts and fanout-level marks are baked in as
// literals; single-word constants from the pool are inlined as immediates
// (`K<class>{...}` operands, broadcast across a lane vector).
//
// Only single-word instructions are compiled: those whose result and every
// operand fit one word per lane (tape::single_word, plus concat and memory
// reads one word wide and variable shifts by a one-word amount).  Each
// multi-word one is a single call back into the engine, `X(C, i)`, which
// runs instruction i's bound handler (the engine's one multi-word
// implementation, lane by lane) and says whether its result changed; the
// generated code dirty-marks the fanout levels as for any other
// instruction.  The emitted single-word statements are this file's own;
// the engine's interpreted evaluators (the threaded handlers and kTape's
// lane switch) share one per-lane definition of each opcode and one
// opcode dispatch between them.
//
// Every compiled statement is one call of a tape driver, templated on the
// lane count and the classes of its destination and operands (a slot
// operand is `P<class>{B + offset}`): it computes in the widest class it
// touches, converting each operand on load and the result on store.
// Concat is v_cat over its parts, a one-word memory read v_mread (on
// AVX-512 a gather of eight lanes under an unsigned in-depth mask).  The
// clock edge is the tape step set, templated on literal lane counts and
// classes: it copies into the step scratch only the inputs Program's
// sampling rule flags (those a register commit could overwrite) and reads
// the rest in place, and each write port commits in one lane loop that
// stores without comparing first (v_mwrite).
//
// Layout contract (must match NativeEngine's runtime exactly): lane l of a
// slot of class c with `words` words lives at byte (off + ((l * words) <<
// c)) of the arena, a lane word of class c taking 1 << c bytes (u8, u16,
// u32, u64); memory word w of entry a in lane l lives at
// mem[mi][(a*L + l)*words + w], one u64 per entry word whatever the width.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtl/codegen.hpp"
#include "rtl/tape_detail.hpp"

namespace osss::rtl::tape {

namespace {

using detail::mask64;

/// The parameters of a level chunk: the eval's, the arena as bytes.
constexpr const char* kChunkParams =
    "(u8* B, u64* const* M, unsigned char* D, "
    "bool (*X)(void*, unsigned) noexcept, void* C)";

/// True when the result and every operand of `ins` fit one word per lane,
/// so the generated code computes it rather than calling back.
bool compiled(const Instr& ins) {
  switch (ins.op) {
    case TOp::kShlV1:
    case TOp::kLshrV1:
      return ins.aw == 1;  // the shift amount's word count
    case TOp::kConcat:
    case TOp::kMemRead:
      return ins.dw == 1;
    default:
      return single_word(ins.op);
  }
}

/// The lane type of width class c in the generated source.
const char* cls_name(unsigned c) {
  static const char* const kNames[] = {"u8", "u16", "u32", "u64"};
  return kNames[c];
}

struct Emitter {
  const Program& p;
  std::ostringstream os;
  /// Single-word constant-pool slots, inlined as K<class>{...} immediates.
  std::unordered_map<std::uint32_t, std::uint64_t> c1;
  /// The drivers the current level chunk calls (bit per jit::TapeDriver).
  unsigned used = 0;

  explicit Emitter(const Program& prog) : p(prog) {
    for (const auto& [off, v] : p.const_init)
      if (v.width() <= 64) c1.emplace(off, v.word(0));
  }

  static std::string hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull",
                  static_cast<unsigned long long>(v));
    return buf;
  }
  static std::string num(std::uint64_t v) { return std::to_string(v); }

  /// One-word operand of class c: inlined constant or slot.
  std::string src(std::uint32_t off, unsigned c) const {
    const std::string t = std::string("<") + cls_name(c) + ">{";
    const auto it = c1.find(off);
    if (it != c1.end()) return "K" + t + hex(it->second) + "}";
    return "P" + t + "B + " + num(off) + "}";
  }
  std::string a(const Instr& ins) const { return src(ins.a, ins.ac); }
  std::string b(const Instr& ins) const { return src(ins.b, ins.bc); }
  std::string c(const Instr& ins) const { return src(ins.c, ins.cc); }

  /// `name<lanes, args..., dst class>(B + dst, ` — the head of a driver
  /// call, noting the driver as used.
  std::string call(jit::TapeDriver drv, const std::string& name,
                   const Instr& ins, const std::string& args = "",
                   const std::string& tail = "") {
    used |= 1u << static_cast<unsigned>(drv);
    return name + "<" + num(p.lanes) + ", " + args + cls_name(ins.dc) + tail +
           ">(B + " + num(ins.dst) + ", ";
  }

  /// Dirty marks for the fanout levels of row `row` of a fanout table
  /// (`off` indexes `levels`, one row per instruction, register or
  /// memory); empty when none.
  std::string marks(const std::vector<std::uint32_t>& off,
                    const std::vector<std::uint32_t>& levels,
                    std::size_t row) const {
    std::string m;
    for (std::uint32_t k = off[row]; k < off[row + 1]; ++k)
      m += " D[" + num(levels[k]) + "] = 1;";
    return m;
  }

  /// The change-returning call expression for one compiled instruction.
  std::string expr(const Instr& ins) {
    using jit::TapeDriver;
    const std::string M = hex(ins.mask);
    const std::string ONES = hex(~0ull);
    const auto bin = [&](const char* op, const std::string& m) {
      return call(TapeDriver::kBin, "v_bin", ins, std::string(op) + ", ") +
             a(ins) + ", " + b(ins) + ", " + m + ")";
    };
    switch (ins.op) {
      case TOp::kAdd1: return bin("OpAdd", M);
      case TOp::kSub1: return bin("OpSub", M);
      case TOp::kMul1:
        // No 64-bit vector multiply below AVX-512DQ: a u64 product goes
        // lane by lane, every narrower one in vectors.
        if (std::max({ins.dc, ins.ac, ins.bc}) == 3)
          return call(TapeDriver::kBin, "v_bin_sc", ins, "OpMul, ") + a(ins) +
                 ", " + b(ins) + ", " + M + ")";
        return bin("OpMul", M);
      case TOp::kAnd1: return bin("OpAnd", ONES);
      case TOp::kOr1: return bin("OpOr", ONES);
      case TOp::kXor1: return bin("OpXor", ONES);
      case TOp::kNot1:
        return call(TapeDriver::kNot, "v_not", ins) + a(ins) + ", " + M + ")";
      case TOp::kShlI1:
        return call(TapeDriver::kShi, "v_shi", ins, "true, ") + a(ins) +
               ", " + num(ins.param) + ", " + M + ")";
      case TOp::kLshrI1:
        return call(TapeDriver::kShi, "v_shi", ins, "false, ") + a(ins) +
               ", " + num(ins.param) + ", " + ONES + ")";
      case TOp::kSlice1:
        return call(TapeDriver::kShi, "v_shi", ins, "false, ") + a(ins) +
               ", " + num(ins.param) + ", " + M + ")";
      case TOp::kAshrI1:
        return call(TapeDriver::kAshri, "v_ashri", ins) + a(ins) + ", " +
               num(ins.param) + ", " + num(ins.width) + ", " + M + ")";
      case TOp::kShlV1:
        return call(TapeDriver::kShv, "v_shv", ins, "true, ") + a(ins) +
               ", " + b(ins) + ", " + num(ins.width) + ", " + M + ")";
      case TOp::kLshrV1:
        return call(TapeDriver::kShv, "v_shv", ins, "false, ") + a(ins) +
               ", " + b(ins) + ", " + num(ins.width) + ", " + ONES + ")";
      case TOp::kEq1:
      case TOp::kNe1:
      case TOp::kUlt1:
      case TOp::kUle1: {
        const char* op = ins.op == TOp::kEq1   ? "CEq, "
                         : ins.op == TOp::kNe1 ? "CNe, "
                         : ins.op == TOp::kUlt1 ? "CUlt, "
                                                : "CUle, ";
        return call(TapeDriver::kCmp, "v_cmp", ins, op) + a(ins) + ", " +
               b(ins) + ")";
      }
      case TOp::kSlt1:
      case TOp::kSle1:
        return call(TapeDriver::kScmp, "v_scmp", ins,
                    ins.op == TOp::kSle1 ? "true, " : "false, ") +
               a(ins) + ", " + b(ins) + ", " + num(ins.a_width) + ")";
      case TOp::kMux1:
        return call(TapeDriver::kMux, "v_mux", ins) + a(ins) + ", " + b(ins) +
               ", " + c(ins) + ")";
      case TOp::kSExt1:
        return call(TapeDriver::kSext, "v_sext", ins) + a(ins) + ", " +
               num(ins.a_width - 1) + ", " +
               hex(ins.mask ^ mask64(ins.a_width)) + ")";
      case TOp::kRedOr1:
        return call(TapeDriver::kRed, "v_redor", ins) + a(ins) + ")";
      case TOp::kRedAnd1:
        return call(TapeDriver::kRed, "v_redand", ins) + a(ins) + ", " +
               hex(mask64(ins.a_width)) + ")";
      case TOp::kRedXor1:
        return call(TapeDriver::kRed, "v_redxor", ins) + a(ins) + ")";
      case TOp::kConcat:
        return concat_expr(ins);
      case TOp::kMemRead:
        return call(TapeDriver::kMread, "v_mread", ins,
                    num(p.mems[ins.param].depth) + ", ",
                    std::string(", ") + cls_name(ins.ac) + ", " +
                        num(ins.aw)) +
               "M[" + num(ins.param) + "], B + " + num(ins.a) + ")";
      default:  // not compiled(): a call back into the engine
        return "";
    }
  }

  /// One change-returning statement `e` that dirty-marks instruction i's
  /// fanout levels.
  void emit_change(std::uint32_t i, const std::string& e) {
    const std::string m = marks(p.instr_fl_off, p.instr_fl, i);
    if (m.empty())
      os << "    (void)" << e << ";\n";
    else
      os << "    if (" << e << ") {" << m << " }\n";
  }

  /// Single-word concat: every part shifted to its bit offset and OR-ed,
  /// in the widest class of the destination and the parts.
  std::string concat_expr(const Instr& ins) {
    std::string e = call(jit::TapeDriver::kCat, "v_cat", ins);
    unsigned pos = 0;
    for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
      const ConcatPart& part = p.parts[ins.param + pi];
      if (pi != 0) e += ", ";
      e += "at(" + src(part.off, part.cls) + ", " + num(pos) + ")";
      pos += part.width;
    }
    return e + ")";
  }

  /// Generated `osss_tape_step`: the clock edge with offsets, classes, lane
  /// counts and dirty marks baked in, the same sample and commits that
  /// NativeEngine::commit() runs without generated code.  Only the inputs
  /// the sampling rule flags (Program::Reg, Program::WritePort) are copied
  /// into the engine-owned scratch S first, so a cached object stays
  /// stateless; the commits read every other input in place.  Each copy
  /// and each commit is one call of a tape step helper: v_cpyb, v_stn for
  /// a register without enable, v_merge with one, v_mwrite per write port.
  void emit_step() {
    const std::uint64_t L = p.lanes;
    os << "extern \"C\" unsigned osss_tape_step(u64* A, u64* const* M, "
          "unsigned char* D, u64* S) {\n";
    os << "  u8* const B = (u8*)A;\n";
    os << "  u8* const T = (u8*)S;\n";
    os << "  (void)B; (void)T; (void)M; (void)D;\n";
    os << "  unsigned chg = 0; (void)chg;\n";
    // Pre-edge sample: what a commit below could overwrite.
    const auto sample = [&](std::uint32_t off, std::uint32_t at,
                            std::uint64_t words, unsigned cls) {
      if (at != kNoSlot)
        os << "  v_cpyb<" << (words << cls) * L << ">(T + " << at << ", B + "
           << off << ");\n";
    };
    for (const Program::Reg& reg : p.regs) {
      sample(reg.d, reg.d_at, reg.words, reg.dc);
      sample(reg.en, reg.en_at, 1, reg.ec);
    }
    for (const Program::Mem& pm : p.mems)
      for (const Program::WritePort& w : pm.writes) {
        sample(w.addr, w.addr_at, w.addr_words, w.ac);
        sample(w.data, w.data_at, pm.words, w.dc);
        sample(w.en, w.en_at, 1, w.ec);
      }
    // Where the commits read an input: its sample, else the arena.
    const auto in = [](std::uint32_t off, std::uint32_t at) {
      return at == kNoSlot ? "B + " + num(off) : "T + " + num(at);
    };
    // One commit: a change-returning helper call that dirty-marks row
    // `row` of a fanout table and flags the step's change.
    const auto commit = [&](const std::string& e,
                            const std::vector<std::uint32_t>& off,
                            const std::vector<std::uint32_t>& levels,
                            std::size_t row) {
      os << "  if (" << e << ") {" << marks(off, levels, row)
         << " chg = 1u; }\n";
    };
    // Commit registers.
    for (std::size_t r = 0; r < p.regs.size(); ++r) {
      const Program::Reg& reg = p.regs[r];
      const std::string q = "B + " + num(reg.q), d = in(reg.d, reg.d_at);
      const std::string qd =
          std::string(cls_name(reg.qc)) + ", " + cls_name(reg.dc);
      commit(reg.en == kNoSlot
                 ? "v_stn<" + num(reg.words * L) + ", " + qd + ">(" + q +
                       ", " + d + ")"
                 : "v_merge<" + num(L) + ", " + num(reg.words) + ", " + qd +
                       ", " + cls_name(reg.ec) + ">(" + q + ", " + d + ", " +
                       in(reg.en, reg.en_at) + ")",
             p.reg_fl_off, p.reg_fl, r);
    }
    // Commit memory writes (port order = declaration order; later win).
    for (std::uint32_t mi = 0; mi < p.mems.size(); ++mi) {
      const Program::Mem& pm = p.mems[mi];
      for (const Program::WritePort& w : pm.writes)
        commit("v_mwrite<" + num(L) + ", " + num(pm.depth) + ", " +
                   num(pm.words) + ", " + num(w.addr_words) + ", " +
                   cls_name(w.ec) + ", " + cls_name(w.ac) + ", " +
                   cls_name(w.dc) + ">(M[" + num(mi) + "], " +
                   in(w.en, w.en_at) + ", " + in(w.addr, w.addr_at) + ", " +
                   in(w.data, w.data_at) + ")",
               p.mem_fl_off, p.mem_fl, mi);
    }
    os << "  return chg;\n";
    os << "}\n";
  }

  /// Whatever the emitter wrote since the last take().
  std::string take() {
    std::string out = os.str();
    os.str("");
    return out;
  }

  /// What a part starts with: the preludes its code calls and the lane
  /// count.  `step` selects the step helper set (part 0), else the
  /// drivers in `drivers` (a level chunk).
  std::string header(bool step, unsigned drivers) const {
    std::ostringstream h;
    h << jit::prelude_header();
    h << "constexpr int L = " << p.lanes << ";\n";
    h << jit::tape_base_prelude();
    if (step) h << jit::tape_step_prelude();
    for (unsigned d = 0; d < static_cast<unsigned>(jit::TapeDriver::kCount);
         ++d)
      if ((drivers >> d) & 1u)
        h << jit::tape_driver_prelude(static_cast<jit::TapeDriver>(d));
    h << "}  // namespace\n\n";
    return h.str();
  }

  /// Level `lev` inside a chunk function: its instructions, skipped
  /// unless the level is dirty.
  void emit_level(std::size_t lev) {
    os << "  if (D[" << lev << "]) {\n    D[" << lev << "] = 0;\n";
    for (std::uint32_t i = p.level_offset[lev]; i < p.level_offset[lev + 1];
         ++i) {
      const Instr& ins = p.instrs[i];
      emit_change(i, compiled(ins) ? expr(ins) : "X(C, " + num(i) + "u)");
    }
    os << "  }\n";
  }

  /// Level chunks `tape_levels_<k>`, one part each: consecutive levels cut
  /// by jit::cut_parts, each with the drivers it calls.  Returns the chunk
  /// count.
  std::size_t emit_level_chunks(jit::Parts& parts) {
    std::size_t chunks = 0;
    jit::cut_parts(
        p.level_offset.size() - 1,
        [&](std::size_t lev) {
          emit_level(lev);
          return take();
        },
        [&](const std::string& code, std::size_t) {
          os << header(false, used) << jit::hidden_function()
             << "void tape_levels_" << chunks++ << kChunkParams << " {\n";
          os << "  (void)B; (void)M; (void)X; (void)C;\n";
          os << code << "}\n";
          parts.push_back(take());
          used = 0;
        });
    return chunks;
  }

  /// Part 0 holds the ABI symbols, the step and the eval, which calls
  /// each level chunk in order; the chunks follow, hidden.
  jit::Parts run() {
    jit::Parts parts(1);
    const std::size_t chunks = emit_level_chunks(parts);
    emit_step();
    const std::string step = take();
    os << header(true, 0);
    os << "extern \"C\" unsigned osss_tape_abi() { return " << kTapeAbi
       << "u; }\n";
    os << "extern \"C\" unsigned osss_tape_lanes() { return "
       << p.lanes << "u; }\n";
    os << "extern \"C\" unsigned long long osss_tape_arena() { return "
       << p.arena_bytes << "ull; }\n";
    os << "extern \"C\" unsigned long long osss_tape_scratch() { return "
       << (p.sample_bytes + 7) / 8 << "ull; }\n\n";
    for (std::size_t k = 0; k < chunks; ++k)
      os << jit::hidden_function() << "void tape_levels_" << k
         << kChunkParams << ";\n";
    os << "\n" << step << "\n";
    os << "extern \"C\" void osss_tape_eval(u64* A, u64* const* M, "
          "unsigned char* D, bool (*X)(void*, unsigned) noexcept, void* C) "
          "{\n";
    os << "  (void)A; (void)M; (void)D; (void)X; (void)C;\n";
    for (std::size_t k = 0; k < chunks; ++k)
      os << "  tape_levels_" << k << "((u8*)A, M, D, X, C);\n";
    os << "}\n";
    parts[0] = take();
    return parts;
  }
};

}  // namespace

jit::Parts emit_cpp(const Program& p) { return Emitter(p).run(); }

}  // namespace osss::rtl::tape
