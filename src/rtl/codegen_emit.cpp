// codegen_emit.cpp — lower a compiled tape::Program into specialized C++.
//
// The generated translation unit is self-contained: a prelude of lane-vector
// helpers (vector-extension types whose width follows the flags the host
// compile passes) followed by one straight-line statement per tape
// instruction, grouped into `if (D[level])` guarded basic blocks that
// mirror the interpreter's level-granular activity gating.  Arena offsets,
// widths, masks, shift amounts and fanout-level marks are baked in as
// literals; single-word constants from the pool are inlined as immediates
// (`K{...}` operands, broadcast across a lane vector).
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
using detail::top_mask;


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
  /// Strided operand (variable shift amounts with multi-word amount slots).
  std::string srcs(std::uint32_t off, unsigned stride) const {
    if (stride == 1) return src1(off);
    return "Ps<" + num(stride) + ">{A + " + num(off) + "}";
  }
  std::string dst(const Instr& ins) const { return "A + " + num(ins.dst); }
  std::string ptr(std::uint32_t off) const { return "A + " + num(off); }
  std::string lanes_words(unsigned per_lane) const {
    return num(std::uint64_t{p.lanes} * per_lane);
  }

  /// Dirty marks for instruction i's fanout levels; empty when none.
  std::string marks(std::uint32_t i) const {
    std::string m;
    for (std::uint32_t k = p.instr_fl_off[i]; k < p.instr_fl_off[i + 1]; ++k)
      m += " D[" + num(p.instr_fl[k]) + "] = 1;";
    return m;
  }

  /// The change-returning call expression for one instruction, or "" for
  /// ops emitted as inline blocks (concat, memread).
  std::string expr(const Instr& ins) const {
    const std::string LN = num(p.lanes);
    const std::string DW = num(ins.dw);
    const std::string AW = num(ins.aw);
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
               ", " + srcs(ins.b, ins.aw) + ", " + num(ins.width) + ", " + M +
               ")";
      case TOp::kLshrV1:
        return "v_shv<" + LN + ", false>(" + dst(ins) + ", " + src1(ins.a) +
               ", " + srcs(ins.b, ins.aw) + ", " + num(ins.width) + ", " +
               ONES + ")";
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

      case TOp::kCopyN:
        return "n_copy<" + LN + ", " + AW + ", " + DW + ">(" + dst(ins) +
               ", " + ptr(ins.a) + ")";
      case TOp::kAddN:
        return "n_add<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " + M + ")";
      case TOp::kSubN:
        return "n_sub<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " + M + ")";
      case TOp::kMulN:
        return "n_mul<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " + M + ")";
      // Lane-major multi-word bitwise ops are elementwise over the flat
      // lanes*words span, so they reuse the vector driver directly.
      case TOp::kAndN:
        return "v_bin<" + lanes_words(ins.dw) + ", OpAnd>(" + dst(ins) +
               ", P{" + ptr(ins.a) + "}, P{" + ptr(ins.b) + "}, " + ONES + ")";
      case TOp::kOrN:
        return "v_bin<" + lanes_words(ins.dw) + ", OpOr>(" + dst(ins) +
               ", P{" + ptr(ins.a) + "}, P{" + ptr(ins.b) + "}, " + ONES + ")";
      case TOp::kXorN:
        return "v_bin<" + lanes_words(ins.dw) + ", OpXor>(" + dst(ins) +
               ", P{" + ptr(ins.a) + "}, P{" + ptr(ins.b) + "}, " + ONES + ")";
      case TOp::kNotN:
        return "n_not<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + M + ")";
      case TOp::kShlIN:
        return "n_shli<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + num(ins.param) + ", " + M + ")";
      case TOp::kLshrIN:
        return "n_lshri<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + num(ins.param) + ")";
      case TOp::kAshrIN:
        return "n_ashri<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + num(ins.param) + ", " + num(ins.width) +
               ", " + M + ")";
      case TOp::kShlVN:
        return "n_shv<" + LN + ", " + DW + ", " + AW + ", true>(" + dst(ins) +
               ", " + ptr(ins.a) + ", " + ptr(ins.b) + ", " + num(ins.width) +
               ", " + M + ")";
      case TOp::kLshrVN:
        return "n_shv<" + LN + ", " + DW + ", " + AW + ", false>(" +
               dst(ins) + ", " + ptr(ins.a) + ", " + ptr(ins.b) + ", " +
               num(ins.width) + ", " + M + ")";
      case TOp::kEqN:
        return "n_eq<" + LN + ", " + AW + ", false>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ")";
      case TOp::kNeN:
        return "n_eq<" + LN + ", " + AW + ", true>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ")";
      case TOp::kUltN:
        return "n_ucmp<" + LN + ", " + AW + ", false>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ")";
      case TOp::kUleN:
        return "n_ucmp<" + LN + ", " + AW + ", true>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ")";
      case TOp::kSltN:
        return "n_scmp<" + LN + ", " + AW + ", false>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " +
               num((ins.a_width - 1) / 64) + ", " +
               num((ins.a_width - 1) % 64) + ")";
      case TOp::kSleN:
        return "n_scmp<" + LN + ", " + AW + ", true>(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " +
               num((ins.a_width - 1) / 64) + ", " +
               num((ins.a_width - 1) % 64) + ")";
      case TOp::kMuxN:
        return "n_mux<" + LN + ", " + DW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + ptr(ins.b) + ", " + ptr(ins.c) + ")";
      case TOp::kSliceN:
        return "n_slice<" + LN + ", " + AW + ", " + DW + ">(" + dst(ins) +
               ", " + ptr(ins.a) + ", " + num(ins.param) + ", " + M + ")";
      case TOp::kSExtN:
        return "n_sext<" + LN + ", " + AW + ", " + DW + ">(" + dst(ins) +
               ", " + ptr(ins.a) + ", " + num(ins.a_width) + ", " +
               num(ins.width) + ", " + M + ")";
      case TOp::kRedOrN:
        return "n_redor<" + LN + ", " + AW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ")";
      case TOp::kRedAndN:
        return "n_redand<" + LN + ", " + AW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ", " + hex(top_mask(ins.a_width)) + ")";
      case TOp::kRedXorN:
        return "n_redxor<" + LN + ", " + AW + ">(" + dst(ins) + ", " +
               ptr(ins.a) + ")";
      case TOp::kConcat:
      case TOp::kMemRead:
        return "";
    }
    return "";
  }

  /// Fully unrolled concat: each part's word contributions are emitted as
  /// constant-shift OR statements into a local staging array.
  void emit_concat(std::uint32_t i, const Instr& ins) {
    os << "    { // concat\n      u64 ch = 0;\n";
    os << "      for (int l = 0; l < " << p.lanes << "; ++l) {\n";
    os << "        u64 s[" << unsigned{ins.dw} << "] = {0};\n";
    unsigned pos = 0;
    for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
      const ConcatPart& part = p.parts[ins.param + pi];
      const unsigned wo = pos / 64, bo = pos % 64;
      os << "        { const u64* q = A + " << part.off << " + l * "
         << unsigned{part.words} << ";\n";
      for (unsigned w = 0; w < part.words; ++w) {
        os << "          s[" << (wo + w) << "] |= q[" << w << "]";
        if (bo != 0) os << " << " << bo;
        os << ";\n";
        if (bo != 0 && wo + w + 1 < ins.dw)
          os << "          s[" << (wo + w + 1) << "] |= q[" << w << "] >> "
             << (64 - bo) << ";\n";
      }
      os << "        }\n";
      pos += part.width;
    }
    os << "        ch |= stn(A + " << ins.dst << " + l * "
       << unsigned{ins.dw} << ", s, " << unsigned{ins.dw} << ");\n";
    os << "      }\n";
    const std::string m = marks(i);
    if (m.empty())
      os << "      (void)ch;\n";
    else
      os << "      if (ch) {" << m << " }\n";
    os << "    }\n";
  }

  void emit_memread(std::uint32_t i, const Instr& ins) {
    const Program::Mem& pm = p.mems[ins.param];
    os << "    { // memread m" << ins.param << "\n";
    os << "      const u64* mp = M[" << ins.param << "];\n";
    os << "      u64 ch = 0;\n";
    os << "      for (int l = 0; l < " << p.lanes << "; ++l) {\n";
    os << "        const u64 addr = A[" << ins.a << " + l * "
       << unsigned{ins.aw} << "];\n";
    if (ins.dw == 1) {
      os << "        const u64 nv = addr < " << pm.depth << "u ? mp[(addr * "
         << p.lanes << "u + l) * " << unsigned{pm.words} << "] : 0;\n";
      os << "        ch |= nv ^ A[" << ins.dst << " + l];\n";
      os << "        A[" << ins.dst << " + l] = nv;\n";
    } else {
      os << "        u64 s[" << unsigned{ins.dw} << "];\n";
      os << "        if (addr < " << pm.depth << "u) {\n";
      os << "          const u64* e = mp + (addr * " << p.lanes << "u + l) * "
         << unsigned{pm.words} << ";\n";
      os << "          for (int w = 0; w < " << unsigned{ins.dw}
         << "; ++w) s[w] = e[w];\n";
      os << "        } else {\n";
      os << "          for (int w = 0; w < " << unsigned{ins.dw}
         << "; ++w) s[w] = 0;\n";
      os << "        }\n";
      os << "        ch |= stn(A + " << ins.dst << " + l * "
         << unsigned{ins.dw} << ", s, " << unsigned{ins.dw} << ");\n";
    }
    os << "      }\n";
    const std::string m = marks(i);
    if (m.empty())
      os << "      (void)ch;\n";
    else
      os << "      if (ch) {" << m << " }\n";
    os << "    }\n";
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

  std::string run() {
    os << jit::prelude_header();
    os << "constexpr int L = " << p.lanes << ";\n";
    os << jit::vector_prelude();
    os << jit::step_prelude();
    os << "}  // namespace\n\n";
    std::ostringstream body;
    body.swap(os);  // emit the step entry first to learn the scratch size
    const std::uint64_t scratch = emit_step();
    std::ostringstream step;
    step.swap(os);
    os.swap(body);
    os << "extern \"C\" unsigned osss_tape_abi() { return 2u; }\n";
    os << "extern \"C\" unsigned osss_tape_lanes() { return "
       << p.lanes << "u; }\n";
    os << "extern \"C\" unsigned long long osss_tape_arena() { return "
       << p.arena_size << "ull; }\n";
    os << "extern \"C\" unsigned long long osss_tape_scratch() { return "
       << scratch << "ull; }\n\n";
    os << step.str() << "\n";
    os << "extern \"C\" void osss_tape_eval(u64* A, u64* const* M, "
          "unsigned char* D) {\n";
    os << "  (void)A; (void)M; (void)D;\n";
    const std::size_t levels = p.level_offset.size() - 1;
    for (std::size_t lev = 0; lev < levels; ++lev) {
      os << "  if (D[" << lev << "]) {\n    D[" << lev << "] = 0;\n";
      for (std::uint32_t i = p.level_offset[lev]; i < p.level_offset[lev + 1];
           ++i) {
        const Instr& ins = p.instrs[i];
        if (ins.op == TOp::kConcat) {
          emit_concat(i, ins);
          continue;
        }
        if (ins.op == TOp::kMemRead) {
          emit_memread(i, ins);
          continue;
        }
        const std::string e = expr(ins);
        const std::string m = marks(i);
        if (m.empty())
          os << "    (void)" << e << ";\n";
        else
          os << "    if (" << e << ") {" << m << " }\n";
      }
      os << "  }\n";
    }
    os << "}\n";
    return os.str();
  }
};

}  // namespace

std::string emit_cpp(const Program& p) { return Emitter(p).run(); }

}  // namespace osss::rtl::tape
