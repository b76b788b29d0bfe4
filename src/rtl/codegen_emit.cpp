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
// Layout contract (must match NativeEngine's runtime exactly): lane l
// of a node with `words` words lives at arena[off + l*words]; memory word w
// of entry a in lane l lives at mem[mi][(a*L + l)*words + w].

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>

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

  /// Dirty marks for instruction i's fanout levels; empty when none.
  std::string marks(std::uint32_t i) const {
    std::string m;
    for (std::uint32_t k = p.instr_fl_off[i]; k < p.instr_fl_off[i + 1]; ++k)
      m += " D[" + num(p.instr_fl[k]) + "] = 1;";
    return m;
  }

  /// The change-returning call expression for one compiled instruction
  /// other than concat and memread, which are emitted as inline blocks.
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
      default:  // run() emits the rest
        return "";
    }
  }

  /// One change-returning statement `e` that dirty-marks instruction i's
  /// fanout levels.
  void emit_change(std::uint32_t i, const std::string& e) {
    const std::string m = marks(i);
    if (m.empty())
      os << "    (void)" << e << ";\n";
    else
      os << "    if (" << e << ") {" << m << " }\n";
  }

  /// Ends an inline block whose `ch` says whether instruction i changed.
  void close_block(std::uint32_t i) {
    const std::string m = marks(i);
    if (m.empty())
      os << "      (void)ch;\n";
    else
      os << "      if (ch) {" << m << " }\n";
    os << "    }\n";
  }

  /// Fully unrolled single-word concat: each part is OR-ed into the one
  /// staging word at its bit offset.
  void emit_concat(std::uint32_t i, const Instr& ins) {
    os << "    { // concat\n      u64 ch = 0;\n";
    os << "      for (int l = 0; l < " << p.lanes << "; ++l) {\n";
    os << "        u64 s[1] = {0};\n";
    unsigned pos = 0;
    for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
      const ConcatPart& part = p.parts[ins.param + pi];
      os << "        { const u64* q = A + " << part.off << " + l * 1;\n";
      os << "          s[0] |= q[0]";
      if (pos != 0) os << " << " << pos;
      os << ";\n        }\n";
      pos += part.width;
    }
    os << "        ch |= stn(A + " << ins.dst << " + l * 1, s, 1);\n";
    os << "      }\n";
    close_block(i);
  }

  void emit_memread(std::uint32_t i, const Instr& ins) {
    const Program::Mem& pm = p.mems[ins.param];
    os << "    { // memread m" << ins.param << "\n";
    os << "      const u64* mp = M[" << ins.param << "];\n";
    os << "      u64 ch = 0;\n";
    os << "      for (int l = 0; l < " << p.lanes << "; ++l) {\n";
    os << "        const u64 addr = A[" << ins.a << " + l * "
       << unsigned{ins.aw} << "];\n";
    os << "        const u64 nv = addr < " << pm.depth << "u ? mp[(addr * "
       << p.lanes << "u + l) * " << unsigned{pm.words} << "] : 0;\n";
    os << "        ch |= nv ^ A[" << ins.dst << " + l];\n";
    os << "        A[" << ins.dst << " + l] = nv;\n";
    os << "      }\n";
    close_block(i);
  }

  /// Generated `osss_tape_step`: register/write-port sample + commit with
  /// offsets, word counts and dirty marks baked in.  Mirrors the engine's
  /// C++ fallback loops exactly (those remain the no-JIT path).  Mutable
  /// step state lives in the engine-owned scratch S (sized by
  /// osss_tape_scratch()) so a cached object stays stateless.
  std::uint64_t emit_step() {
    std::uint64_t sat = 0;  // scratch allocation cursor (words)
    const auto alloc = [&sat](std::uint64_t n) {
      const std::uint64_t at = sat;
      sat += n;
      return at;
    };
    const std::string L = num(p.lanes);
    std::vector<std::uint64_t> reg_en_at(p.regs.size(), 0);
    std::vector<std::uint64_t> reg_nd_at(p.regs.size(), 0);
    for (std::size_t r = 0; r < p.regs.size(); ++r) {
      if (p.regs[r].en != kNoSlot) reg_en_at[r] = alloc(p.lanes);
      reg_nd_at[r] = alloc(std::uint64_t{p.regs[r].words} * p.lanes);
    }
    struct WpAt {
      std::uint32_t mem;
      const Program::WritePort* port;
      std::uint16_t words;
      std::uint64_t en_at, addr_at, data_at;
    };
    std::vector<WpAt> wps;
    for (std::uint32_t mi = 0; mi < p.mems.size(); ++mi)
      for (const Program::WritePort& port : p.mems[mi].writes)
        wps.push_back({mi, &port, p.mems[mi].words, alloc(p.lanes),
                       alloc(p.lanes),
                       alloc(std::uint64_t{p.mems[mi].words} * p.lanes)});

    os << "extern \"C\" unsigned osss_tape_step(u64* A, u64* const* M, "
          "unsigned char* D, u64* S) {\n";
    os << "  (void)A; (void)M; (void)D; (void)S;\n";
    os << "  unsigned chg = 0; (void)chg;\n";
    // Pre-edge sample: every register and write port observes the same
    // settled values before any commit overwrites the arena.
    for (std::size_t r = 0; r < p.regs.size(); ++r) {
      const Program::Reg& reg = p.regs[r];
      const std::string wl = num(std::uint64_t{reg.words} * p.lanes);
      if (reg.en != kNoSlot)
        os << "  if (j_snap(S + " << num(reg_en_at[r]) << ", A + "
           << num(reg.en) << ", " << L << ")) j_cpy(S + "
           << num(reg_nd_at[r]) << ", A + " << num(reg.d) << ", " << wl
           << ");\n";
      else
        os << "  j_cpy(S + " << num(reg_nd_at[r]) << ", A + " << num(reg.d)
           << ", " << wl << ");\n";
    }
    for (const WpAt& wp : wps) {
      const std::string wl = num(std::uint64_t{wp.words} * p.lanes);
      os << "  if (j_snap(S + " << num(wp.en_at) << ", A + "
         << num(wp.port->en) << ", " << L << ")) {\n";
      if (wp.port->addr_words == 1)
        os << "    j_cpy(S + " << num(wp.addr_at) << ", A + "
           << num(wp.port->addr) << ", " << L << ");\n";
      else
        os << "    for (int l = 0; l < " << L << "; ++l) S["
           << num(wp.addr_at) << " + l] = A[" << num(wp.port->addr)
           << " + l * " << unsigned{wp.port->addr_words} << "];\n";
      os << "    j_cpy(S + " << num(wp.data_at) << ", A + "
         << num(wp.port->data) << ", " << wl << ");\n";
      os << "  }\n";
    }
    // Commit registers.
    for (std::size_t r = 0; r < p.regs.size(); ++r) {
      const Program::Reg& reg = p.regs[r];
      std::string m;
      for (std::uint32_t k = p.reg_fl_off[r]; k < p.reg_fl_off[r + 1]; ++k)
        m += " D[" + num(p.reg_fl[k]) + "] = 1;";
      os << "  {\n";
      if (reg.en == kNoSlot) {
        os << "    const u64 diff = j_stn(A + " << num(reg.q) << ", S + "
           << num(reg_nd_at[r]) << ", "
           << num(std::uint64_t{reg.words} * p.lanes) << ");\n";
      } else if (reg.words == 1) {
        os << "    const u64 diff = j_merge1(A + " << num(reg.q) << ", S + "
           << num(reg_nd_at[r]) << ", S + " << num(reg_en_at[r]) << ", " << L
           << ");\n";
      } else {
        os << "    u64 diff = 0;\n";
        os << "    for (int l = 0; l < " << L << "; ++l) {\n";
        os << "      if ((S[" << num(reg_en_at[r])
           << " + l] & 1u) == 0) continue;\n";
        os << "      diff |= j_stn(A + " << num(reg.q) << " + l * "
           << unsigned{reg.words} << ", S + " << num(reg_nd_at[r])
           << " + l * " << unsigned{reg.words} << ", " << unsigned{reg.words}
           << ");\n";
        os << "    }\n";
      }
      os << "    if (diff) {" << m << " chg = 1u; }\n";
      os << "  }\n";
    }
    // Commit memory writes (port order = declaration order; later win).
    for (std::size_t wi = 0; wi < wps.size(); ++wi) {
      const WpAt& wp = wps[wi];
      const Program::Mem& pm = p.mems[wp.mem];
      std::string m;
      for (std::uint32_t k = p.mem_fl_off[wp.mem];
           k < p.mem_fl_off[wp.mem + 1]; ++k)
        m += " D[" + num(p.mem_fl[k]) + "] = 1;";
      os << "  {\n";
      os << "    u64 ch = 0;\n";
      os << "    for (int l = 0; l < " << L << "; ++l) {\n";
      os << "      if ((S[" << num(wp.en_at) << " + l] & 1u) == 0) continue;\n";
      os << "      const u64 addr = S[" << num(wp.addr_at) << " + l];\n";
      os << "      if (addr >= " << pm.depth << "u) continue;\n";
      os << "      u64* e = M[" << wp.mem << "] + (addr * " << L
         << "u + l) * " << unsigned{pm.words} << ";\n";
      os << "      const u64* s = S + " << num(wp.data_at) << " + l * "
         << unsigned{pm.words} << ";\n";
      os << "      for (int w = 0; w < " << unsigned{pm.words}
         << "; ++w) if (e[w] != s[w]) { e[w] = s[w]; ch = 1u; }\n";
      os << "    }\n";
      os << "    if (ch) {" << m << " chg = 1u; }\n";
      os << "  }\n";
    }
    os << "  return chg;\n";
    os << "}\n";
    return sat;
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
      if (!compiled(ins))
        emit_change(i, "X(C, " + num(i) + "u)");
      else if (ins.op == TOp::kConcat)
        emit_concat(i, ins);
      else if (ins.op == TOp::kMemRead)
        emit_memread(i, ins);
      else
        emit_change(i, expr(ins));
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
    const std::uint64_t scratch = emit_step();  // learns the scratch size
    const std::string step = take();
    os << header();
    os << "extern \"C\" unsigned osss_tape_abi() { return 3u; }\n";
    os << "extern \"C\" unsigned osss_tape_lanes() { return "
       << p.lanes << "u; }\n";
    os << "extern \"C\" unsigned long long osss_tape_arena() { return "
       << p.arena_size << "ull; }\n";
    os << "extern \"C\" unsigned long long osss_tape_scratch() { return "
       << scratch << "ull; }\n\n";
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
