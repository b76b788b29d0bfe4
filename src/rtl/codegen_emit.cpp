// codegen_emit.cpp — lower a compiled tape::Program into specialized C++.
//
// The output is a list of self-contained translation units (jit::Parts),
// each opening with a prelude of lane-vector helpers (vector-extension
// types whose width follows the flags the host compile passes).  The code
// is one straight-line statement per tape instruction, grouped into
// `if (D[level])` guarded basic blocks that mirror the interpreter's
// level-granular activity gating.  Consecutive blocks form hidden chunk
// functions `tape_levels_<k>`, one part each, cut once a chunk's code
// reaches jit::kPartBytes; part 0 holds the ABI symbols, `osss_tape_step`
// and an `osss_tape_eval` that calls the chunks in order, and the jit
// compiles the parts concurrently.  Arena offsets, widths, masks, shift
// amounts and fanout-level marks are baked in as literals; single-word
// constants from the pool are inlined as immediates (`K{...}` operands,
// broadcast across a lane vector).
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
// Every compiled statement is one call of a vector-prelude driver written
// against lane vectors: concat through v_store, a one-word memory read
// through v_mread (on AVX-512 a gather of eight lanes under an unsigned
// in-depth mask).  The clock edge is the step prelude's helper set,
// templated on a literal word count: it copies into the step scratch only
// the inputs Program's sampling rule flags (those a register commit could
// overwrite) and reads the rest in place, and each write port commits in
// one lane loop that stores without comparing first (v_mwrite).
//
// Layout contract (must match NativeEngine's runtime exactly): lane l
// of a node with `words` words lives at arena[off + l*words]; memory word w
// of entry a in lane l lives at mem[mi][(a*L + l)*words + w].

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

/// The parameters of a level chunk: those of the eval that calls it.
constexpr const char* kChunkParams =
    "(u64* A, u64* const* M, unsigned char* D, "
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

struct Emitter {
  const Program& p;
  std::ostringstream os;
  /// Single-word constant-pool slots, inlined as K{...} immediates.
  std::unordered_map<std::uint32_t, std::uint64_t> c1;

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

  /// Stride-1 operand: inlined constant or arena pointer.
  std::string src1(std::uint32_t off) const {
    const auto it = c1.find(off);
    if (it != c1.end()) return "K{" + hex(it->second) + "}";
    return "P{A + " + num(off) + "}";
  }
  std::string dst(const Instr& ins) const { return "A + " + num(ins.dst); }

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
  std::string expr(const Instr& ins) const {
    const std::string LN = num(p.lanes);
    const std::string M = hex(ins.mask);
    const std::string ONES = hex(~0ull);
    switch (ins.op) {
      case TOp::kAdd1:
        return "v_bin<" + LN + ", OpAdd>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + M + ")";
      case TOp::kSub1:
        return "v_bin<" + LN + ", OpSub>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + M + ")";
      case TOp::kMul1:
        return "v_bin_sc<" + LN + ", OpMul>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + M + ")";
      case TOp::kAnd1:
        return "v_bin<" + LN + ", OpAnd>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + ONES + ")";
      case TOp::kOr1:
        return "v_bin<" + LN + ", OpOr>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + ONES + ")";
      case TOp::kXor1:
        return "v_bin<" + LN + ", OpXor>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + ONES + ")";
      case TOp::kNot1:
        return "v_not<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ", " +
               M + ")";
      case TOp::kShlI1:
        return "v_shi<" + LN + ", true>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + num(ins.param) + ", " + M + ")";
      case TOp::kLshrI1:
        return "v_shi<" + LN + ", false>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + num(ins.param) + ", " + ONES + ")";
      case TOp::kSlice1:
        return "v_shi<" + LN + ", false>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + num(ins.param) + ", " + M + ")";
      case TOp::kAshrI1:
        return "v_ashri<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ", " +
               num(ins.param) + ", " + num(ins.width) + ", " + M + ")";
      case TOp::kShlV1:
        return "v_shv<" + LN + ", true>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + num(ins.width) + ", " + M + ")";
      case TOp::kLshrV1:
        return "v_shv<" + LN + ", false>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + num(ins.width) + ", " + ONES +
               ")";
      case TOp::kEq1:
        return "v_cmp<" + LN + ", CEq>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ")";
      case TOp::kNe1:
        return "v_cmp<" + LN + ", CNe>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ")";
      case TOp::kUlt1:
        return "v_cmp<" + LN + ", CUlt>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ")";
      case TOp::kUle1:
        return "v_cmp<" + LN + ", CUle>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ")";
      case TOp::kSlt1:
        return "v_scmp<" + LN + ", false>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + num(64 - ins.a_width) + ")";
      case TOp::kSle1:
        return "v_scmp<" + LN + ", true>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + src1(ins.b) + ", " + num(64 - ins.a_width) + ")";
      case TOp::kMux1:
        return "v_mux<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ", " +
               src1(ins.b) + ", " + src1(ins.c) + ")";
      case TOp::kSExt1:
        return "v_sext<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ", " +
               num(ins.a_width - 1) + ", " +
               hex(ins.mask ^ mask64(ins.a_width)) + ")";
      case TOp::kRedOr1:
        return "v_redor<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ")";
      case TOp::kRedAnd1:
        return "v_redand<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) +
               ", " + hex(mask64(ins.a_width)) + ")";
      case TOp::kRedXor1:
        return "v_redxor<" + LN + ">(" + dst(ins) + ", " + src1(ins.a) + ")";
      case TOp::kConcat:
        return concat_expr(ins);
      case TOp::kMemRead:
        return memread_expr(ins);
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
  /// one lane vector per step.
  std::string concat_expr(const Instr& ins) const {
    const std::string LN = num(p.lanes);
    std::string e = "v_store<" + LN + ">(" + dst(ins) +
                    ", [&](int l) { using V = LaneV<" + LN + ">; return ";
    unsigned pos = 0;
    for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
      const ConcatPart& part = p.parts[ins.param + pi];
      if (pi != 0) e += " | ";
      e += "ld<V>(" + src1(part.off) + ", l)";
      if (pos != 0) e += " << " + num(pos);
      pos += part.width;
    }
    return e + "; })";
  }

  /// One-word memory read: the v_mread driver (a gather on AVX-512).
  std::string memread_expr(const Instr& ins) const {
    return "v_mread<" + num(p.lanes) + ", " + num(p.mems[ins.param].depth) +
           ", " + num(ins.aw) + ">(" + dst(ins) + ", M[" + num(ins.param) +
           "], A + " + num(ins.a) + ")";
  }

  /// Generated `osss_tape_step`: the clock edge with offsets, word counts
  /// and dirty marks baked in, the same sample and commits that
  /// NativeEngine::commit() runs without generated code.  Only the inputs
  /// the sampling rule flags (Program::Reg, Program::WritePort) are copied
  /// into the engine-owned scratch S first, so a cached object stays
  /// stateless; the commits read every other input in place.  Each copy
  /// and each commit is one call of a step-prelude helper: v_cpy, v_stn
  /// for a register without enable, v_merge with one, v_mwrite per write
  /// port.
  void emit_step() {
    const std::uint64_t L = p.lanes;
    os << "extern \"C\" unsigned osss_tape_step(u64* A, u64* const* M, "
          "unsigned char* D, u64* S) {\n";
    os << "  (void)A; (void)M; (void)D; (void)S;\n";
    os << "  unsigned chg = 0; (void)chg;\n";
    // Pre-edge sample: what a commit below could overwrite.
    const auto sample = [&](std::uint32_t off, std::uint32_t at,
                            std::uint64_t words) {
      if (at != kNoSlot)
        os << "  v_cpy<" << words * L << ">(S + " << at << ", A + " << off
           << ");\n";
    };
    for (const Program::Reg& reg : p.regs) {
      sample(reg.d, reg.d_at, reg.words);
      sample(reg.en, reg.en_at, 1);
    }
    for (const Program::Mem& pm : p.mems)
      for (const Program::WritePort& w : pm.writes) {
        sample(w.addr, w.addr_at, w.addr_words);
        sample(w.data, w.data_at, pm.words);
        sample(w.en, w.en_at, 1);
      }
    // Where the commits read an input: its sample, else the arena.
    const auto src = [](std::uint32_t off, std::uint32_t at) {
      return at == kNoSlot ? "A + " + num(off) : "S + " + num(at);
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
      const std::string q = "A + " + num(reg.q), d = src(reg.d, reg.d_at);
      commit(reg.en == kNoSlot
                 ? "v_stn<" + num(reg.words * L) + ">(" + q + ", " + d + ")"
                 : "v_merge<" + num(L) + ", " + num(reg.words) + ">(" + q +
                       ", " + d + ", " + src(reg.en, reg.en_at) + ")",
             p.reg_fl_off, p.reg_fl, r);
    }
    // Commit memory writes (port order = declaration order; later win).
    for (std::uint32_t mi = 0; mi < p.mems.size(); ++mi) {
      const Program::Mem& pm = p.mems[mi];
      for (const Program::WritePort& w : pm.writes)
        commit("v_mwrite<" + num(L) + ", " + num(pm.depth) + ", " +
                   num(pm.words) + ", " + num(w.addr_words) + ">(M[" +
                   num(mi) + "], " + src(w.en, w.en_at) + ", " +
                   src(w.addr, w.addr_at) + ", " + src(w.data, w.data_at) +
                   ")",
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

  /// What every part starts with: the preludes and the lane count.
  std::string header() const {
    std::ostringstream h;
    h << jit::prelude_header();
    h << "constexpr int L = " << p.lanes << ";\n";
    h << jit::vector_prelude();
    h << jit::step_prelude();
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
  /// by jit::cut_parts.  Returns the chunk count.
  std::size_t emit_level_chunks(jit::Parts& parts) {
    std::size_t chunks = 0;
    jit::cut_parts(
        p.level_offset.size() - 1,
        [&](std::size_t lev) {
          emit_level(lev);
          return take();
        },
        [&](const std::string& code, std::size_t) {
          os << header() << jit::hidden_function() << "void tape_levels_"
             << chunks++ << kChunkParams << " {\n";
          os << "  (void)A; (void)M; (void)X; (void)C;\n";
          os << code << "}\n";
          parts.push_back(take());
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
    os << header();
    os << "extern \"C\" unsigned osss_tape_abi() { return 3u; }\n";
    os << "extern \"C\" unsigned osss_tape_lanes() { return "
       << p.lanes << "u; }\n";
    os << "extern \"C\" unsigned long long osss_tape_arena() { return "
       << p.arena_size << "ull; }\n";
    os << "extern \"C\" unsigned long long osss_tape_scratch() { return "
       << p.sample_words << "ull; }\n\n";
    for (std::size_t k = 0; k < chunks; ++k)
      os << jit::hidden_function() << "void tape_levels_" << k
         << kChunkParams << ";\n";
    os << "\n" << step << "\n";
    os << "extern \"C\" void osss_tape_eval" << kChunkParams << " {\n";
    os << "  (void)A; (void)M; (void)D; (void)X; (void)C;\n";
    for (std::size_t k = 0; k < chunks; ++k)
      os << "  tape_levels_" << k << "(A, M, D, X, C);\n";
    os << "}\n";
    parts[0] = take();
    return parts;
  }
};

}  // namespace

jit::Parts emit_cpp(const Program& p) { return Emitter(p).run(); }

}  // namespace osss::rtl::tape
