// codegen_emit.cpp — lower a levelized gate Netlist into specialized C++.
//
// The output is a list of translation units (jit::Parts), each opening
// with the shared jit preludes: the store-only lane_ops_prelude chunk
// layer (vw = one vector-extension chunk of lane words) for combinational
// logic and step_prelude's helpers (lane vectors over a literal word
// count) for the write-port samples and memory-tap copies.  Part 0 holds
// the ABI symbols, the settle `gate_eval` and `osss_gate_step`; the settle
// is hidden, so the step calls it directly, and `osss_gate_eval` exports
// it.  The levels go to hidden chunk functions `gate_levels_<k>(V, M,
// first)`, one part each, and each write port's commit to a hidden
// `gate_wport_<k>`; a chunk closes, and a part of write ports is cut, once
// its code reaches jit::kPartBytes.  The jit compiles the parts
// concurrently: the compiler's cost grows faster than linearly with a
// function's size, so many small functions on several cores build far
// sooner than one huge one.
//
// Unlike the interpreter, the generated eval keeps no per-cell change
// tracking.  Levels form a topological schedule, so `gate_eval` scans
// the per-level dirty flags once and then runs one straight-line sweep
// from the first dirty level to the end, calling each chunk that ends
// past it — every downstream value is recomputed exactly (change
// propagation is implicit in program order), and a quiescent settle still
// costs only the flag scan.  Cells within one level are topologically
// independent, so each level's logic cells fuse into a single
// `for (w += VW)` loop nest: one loop bound check per VW lane words serves
// the whole level instead of one word loop per cell, and every store is
// an explicit SIMD chunk.
//
// Memory read ports are grouped — one block per distinct (mem, address
// nets) tuple instead of one per read-data bit — and each group is one
// call of the prelude's `g_mread`, over constant tables of its address-net
// offsets, tap offsets and tap bits; each write port's commit is one call
// of `g_mwrite` over the port's step-scratch samples
// (jit::gate_memory_prelude, written only into the parts that call them).
// The helpers pick, at compile time, a one-hot row sweep over all lanes or
// a per-lane address decode.
// `osss_gate_step` samples and commits the DFFs by walking constant tables
// (D and Q offsets, CSR dirty marks) rather than one unrolled copy per
// flip-flop, calls the write-port commits and ends with an inline settle
// call, so a clock cycle is one native call.
//
// Layout contract (must match gate::NativeEngine exactly): lane word w of
// net n lives at V[n*LW + w]; lane word w of data bit b of memory entry a
// lives at M[mi][(a*width + b)*LW + w]; all per-step mutable state lives in
// the engine-owned scratch S so a cached object stays stateless.
//
// Masking invariant: every arena and memory word only ever holds bits of
// valid lanes (the engine masks on input, the drivers mask on inversion).

#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gate/codegen.hpp"

namespace osss::gate {

namespace {

/// The parameters of a level chunk and of a write port's commit.
constexpr const char* kChunkParams = "(u64* V, u64* const* M, int first)";
constexpr const char* kPortParams =
    "(u64* V, u64* const* M, unsigned char* D, u64* S)";

struct Emitter {
  const Netlist& nl;
  const Schedule& s;
  const unsigned lanes;
  const unsigned lw;
  const std::uint64_t tm;
  std::ostringstream os;
  /// Whether the level chunk being emitted calls g_mread.
  bool memory_calls = false;

  Emitter(const Netlist& n, const Schedule& sched)
      : nl(n),
        s(sched),
        lanes(sched.lanes),
        lw(sched.lw),
        tm(sched.tail_mask) {}

  static std::string hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull",
                  static_cast<unsigned long long>(v));
    return buf;
  }
  static std::string num(std::uint64_t v) { return std::to_string(v); }

  std::string TM() const { return hex(tm); }

  /// Chunk operand for an input net inside a fused `w` loop: constants
  /// 0/1 use the hoisted broadcast chunks, any other net loads its arena
  /// span at the loop cursor.
  std::string vop(NetId in) const {
    if (in == nl.const0()) return "vc0";
    if (in == nl.const1()) return "vc1";
    return "vld(V + " + num(std::uint64_t{in} * lw) + " + w)";
  }

  /// Dirty marks for one CSR row of fanout levels; empty when none.
  static std::string marks(const std::vector<std::uint32_t>& off,
                           const std::vector<std::uint32_t>& levels,
                           std::size_t row) {
    std::string m;
    for (std::uint32_t k = off[row]; k < off[row + 1]; ++k)
      m += " D[" + num(levels[k]) + "] = 1;";
    return m;
  }

  /// The store-only chunk expression for one logic cell ("" for kMemQ,
  /// which is emitted as a grouped read-port block).  Inverting forms
  /// fold the tail mask by xor (masking invariant: stored words only
  /// carry valid-lane bits).
  std::string vexpr(const Cell& c) const {
    const auto bin = [&](const char* op) {
      return std::string(op) + "(" + vop(c.ins[0]) + ", " + vop(c.ins[1]) +
             ")";
    };
    switch (c.kind) {
      case CellKind::kBuf: return vop(c.ins[0]);
      case CellKind::kInv: return "v_inv(" + vop(c.ins[0]) + ")";
      case CellKind::kAnd2: return bin("v_and");
      case CellKind::kOr2: return bin("v_or");
      case CellKind::kXor2: return bin("v_xor");
      case CellKind::kNand2: return bin("v_nand");
      case CellKind::kNor2: return bin("v_nor");
      case CellKind::kXnor2: return bin("v_xnor");
      case CellKind::kMux2:
        return "v_mux(" + vop(c.ins[0]) + ", " + vop(c.ins[1]) + ", " +
               vop(c.ins[2]) + ")";
      default: return "";
    }
  }

  /// `static const <type> <name>[] = {...};` at `indent`, twelve values a
  /// line.
  template <class T>
  void table(const char* indent, const char* type, const char* name,
             const std::vector<T>& values) {
    os << indent << "static const " << type << " " << name << "[] = {";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i % 12 == 0)
        os << "\n" << indent << "  ";
      else
        os << " ";
      os << num(values[i]) << ",";
    }
    os << "\n" << indent << "};\n";
  }

  /// One grouped read port: every kMemQ cell sharing (mem, address nets),
  /// one g_mread call over the address-net offsets, the taps' offsets and
  /// their data bits.
  void emit_memq_group(const std::vector<NetId>& cells) {
    const Cell& c0 = nl.cells()[cells.front()];
    const MemMacro& m = nl.memories()[c0.param];
    std::vector<std::uint64_t> ad, qo;
    std::vector<std::uint32_t> qb;
    for (const NetId a : c0.ins) ad.push_back(std::uint64_t{a} * lw);
    for (const NetId id : cells) {
      qo.push_back(std::uint64_t{id} * lw);
      qb.push_back(nl.cells()[id].param2);
    }
    os << "    { // mem " << c0.param << " read port: depth " << m.depth
       << ", " << cells.size() << " tap(s)\n";
    table("      ", "u64", "ad", ad);
    table("      ", "u64", "qo", qo);
    table("      ", "unsigned", "qb", qb);
    os << "      g_mread<" << lanes << ", " << lw << ", " << m.depth << ", "
       << ad.size() << ", " << m.width << ", " << cells.size() << ">(V, M["
       << c0.param << "], ad, qo, qb);\n";
    os << "    }\n";
    memory_calls = true;
  }

  /// Whatever the emitter wrote since the last take().
  std::string take() {
    std::string out = os.str();
    os.str("");
    return out;
  }

  /// Level `lev` inside a chunk function: its grouped read ports, then
  /// its logic cells as one fused chunk loop, guarded by `first`.
  void emit_level(std::uint32_t lev) {
    os << "  if (first <= " << lev << ") {\n";
    // Group this level's kMemQ cells by read port (shared mem + address
    // nets) and emit each group once, where its first tap appears.
    std::map<std::pair<std::uint32_t, std::vector<NetId>>, std::vector<NetId>>
        ports;
    std::vector<NetId> logic;
    const std::span<const NetId> level(
        s.level_cells.data() + s.level_offset[lev],
        s.level_offset[lev + 1] - s.level_offset[lev]);
    for (const NetId id : level) {
      const Cell& c = nl.cells()[id];
      if (c.kind == CellKind::kMemQ)
        ports[{c.param, c.ins}].push_back(id);
      else
        logic.push_back(id);
    }
    for (const NetId id : level) {
      const Cell& c = nl.cells()[id];
      if (c.kind != CellKind::kMemQ) continue;
      const auto it = ports.find({c.param, c.ins});
      if (it != ports.end()) {
        emit_memq_group(it->second);
        ports.erase(it);
      }
    }
    // Same-level cells never read each other, so the whole level fuses
    // into one chunked loop: one bound check per VW lane words.
    if (!logic.empty()) {
      os << "    for (int w = 0; w < L; w += VW) {\n";
      for (const NetId id : logic)
        os << "      vst(V + " << num(std::uint64_t{id} * lw) << " + w, "
           << vexpr(nl.cells()[id]) << ");\n";
      os << "    }\n";
    }
    os << "  }\n";
  }

  /// Level chunks: consecutive levels cut by jit::cut_parts.  Returns the
  /// chunks' end levels; the code of chunk k (`gate_levels_<k>`, one part
  /// each) goes to `parts`.
  std::vector<std::uint32_t> emit_level_chunks(jit::Parts& parts) {
    std::vector<std::uint32_t> ends;
    jit::cut_parts(
        s.levels(),
        [&](std::size_t lev) {
          emit_level(static_cast<std::uint32_t>(lev));
          return take();
        },
        [&](const std::string& code, std::size_t end) {
          os << header(memory_calls) << jit::hidden_function()
             << "void gate_levels_" << ends.size() << kChunkParams << " {\n";
          os << "  (void)M;\n";
          os << "  const vw vc0 = vbc(0x0ull); (void)vc0;\n";
          os << "  const vw vc1 = vbc(TM); (void)vc1;\n";
          os << code << "}\n";
          parts.push_back(take());
          ends.push_back(static_cast<std::uint32_t>(end));
          memory_calls = false;
        });
    return ends;
  }

  /// The settle, `gate_eval`: one in-order sweep from the first dirty
  /// level settles everything downstream of any marked change (a clean
  /// schedule costs only the flag scan), chunk by chunk.  It is hidden, so
  /// the step's settle is a direct call (an exported function of a -fPIC
  /// object is called through the PLT); `osss_gate_eval` exports it.
  void emit_eval(const std::vector<std::uint32_t>& ends) {
    os << jit::hidden_function()
       << "void gate_eval(u64* V, u64* const* M, unsigned char* D) {\n";
    os << "  (void)V; (void)M; (void)D;\n";
    const std::uint32_t num_levels = s.levels();
    if (num_levels != 0) {
      os << "  int first = " << num_levels << ";\n";
      os << "  for (int i = 0; i < " << num_levels << "; ++i)\n";
      os << "    if (D[i]) { first = i; break; }\n";
      os << "  if (first >= " << num_levels << ") return;\n";
      os << "  for (int i = first; i < " << num_levels << "; ++i) D[i] = 0;\n";
      for (std::size_t k = 0; k < ends.size(); ++k)
        os << "  if (first < " << ends[k] << ") gate_levels_" << k
           << "(V, M, first);\n";
    }
    os << "}\n\n";
    // The last two parameters are the engine callback jit::EvalFn passes
    // every generated eval.  Gate code has nothing to call back for.
    os << "extern \"C\" void osss_gate_eval(u64* V, u64* const* M, "
          "unsigned char* D, bool (*)(void*, unsigned) noexcept, void*) {\n";
    os << "  gate_eval(V, M, D);\n";
    os << "}\n\n";
  }

  /// One memory write port's commit (`gate_wport_<k>`): one g_mwrite call
  /// merges the sampled enable, address and data into the memory; the
  /// function dirty-marks the memory's read levels and returns nonzero
  /// when a word changed.
  void emit_write_port(std::size_t k, const Schedule::WritePort& wp) {
    const MemMacro& m = nl.memories()[wp.mem];
    const std::string mk = marks(s.mem_fl_off, s.mem_fl, wp.mem);
    os << jit::hidden_function() << "unsigned gate_wport_" << k
       << kPortParams << " {\n";
    os << "  (void)V; (void)D;\n";
    os << "  // mem " << wp.mem << " write port: depth " << m.depth
       << ", width " << m.width << "\n";
    os << "  if (!g_mwrite<" << lanes << ", " << lw << ", " << m.depth << ", "
       << wp.addr_n << ", " << m.width << ">(M[" << wp.mem << "], S + "
       << sample_at(wp.base) << ")) return 0u;\n";
    if (!mk.empty()) os << " " << mk << "\n";
    os << "  return 1u;\n";
    os << "}\n";
  }

  /// Write-port commits in declaration order, cut into parts by
  /// jit::cut_parts.
  void emit_write_ports(jit::Parts& parts) {
    jit::cut_parts(
        s.wports.size(),
        [&](std::size_t k) {
          emit_write_port(k, s.wports[k]);
          return take();
        },
        [&](const std::string& code, std::size_t) {
          parts.push_back(header(true) + code);
        });
  }

  /// Scratch word of write-port net k (Schedule::wp_nets).
  std::uint64_t sample_at(std::size_t k) const {
    return (s.dffs.size() + k) * lw;
  }

  /// Generated `osss_gate_step`: DFF/write-port sample + commit with
  /// offsets and dirty marks baked in, ending with an inline settle so one
  /// clock cycle is a single native call.  Sample offsets and commit order
  /// are the Schedule's, as in the engine's interpreted fallback.  The
  /// DFFs sample and commit by walking constant tables of D and Q offsets
  /// and CSR dirty marks; each write port commits in its own function.
  void emit_step() {
    os << "extern \"C\" unsigned osss_gate_step" << kPortParams << " {\n";
    os << "  (void)V; (void)M; (void)D; (void)S;\n";
    os << "  unsigned chg = 0; (void)chg;\n";
    const std::vector<NetId>& dffs = s.dffs;
    if (!dffs.empty()) {
      std::vector<std::uint64_t> d_at, q_at;
      std::vector<std::uint32_t> fo = {0}, fl;
      for (const NetId q : dffs) {
        d_at.push_back(std::uint64_t{nl.cells()[q].ins[0]} * lw);
        q_at.push_back(std::uint64_t{q} * lw);
        for (std::uint32_t k = s.net_fl_off[q]; k < s.net_fl_off[q + 1]; ++k)
          fl.push_back(s.net_fl[k]);
        fo.push_back(static_cast<std::uint32_t>(fl.size()));
      }
      table("  ", "u64", "dff_d", d_at);
      table("  ", "u64", "dff_q", q_at);
      if (!fl.empty()) {
        table("  ", "unsigned", "dff_fo", fo);
        table("  ", "unsigned", "dff_fl", fl);
      }
      // Pre-edge sample: every DFF and write port observes the settled
      // pre-clock values before any commit rewrites the arena.  Each copy
      // and compare is one vw chunk per VW lane words, as in the level
      // loops: a scalar word loop per flip-flop would not vectorize.
      os << "  for (int i = 0; i < " << dffs.size() << "; ++i)\n";
      os << "    for (int w = 0; w < L; w += VW)\n";
      os << "      vst(S + i * L + w, vld(V + dff_d[i] + w));\n";
      emit_write_port_samples();
      os << "  for (int i = 0; i < " << dffs.size() << "; ++i) {\n";
      os << "    u64* const q = V + dff_q[i];\n";
      os << "    vw diff = vbc(0x0ull);\n";
      os << "    for (int w = 0; w < L; w += VW) {\n";
      os << "      const vw nv = vld(S + i * L + w);\n";
      os << "      diff |= nv ^ vld(q + w);\n";
      os << "      vst(q + w, nv);\n";
      os << "    }\n";
      if (fl.empty()) {
        os << "    if (v_any(diff)) chg = 1u;\n";
      } else {
        os << "    if (v_any(diff)) {\n";
        os << "      for (unsigned k = dff_fo[i]; k < dff_fo[i + 1]; ++k) "
              "D[dff_fl[k]] = 1;\n";
        os << "      chg = 1u;\n";
        os << "    }\n";
      }
      os << "  }\n";
    } else {
      emit_write_port_samples();
    }
    // Commit memory writes (port order = declaration order; later win).
    for (std::size_t k = 0; k < s.wports.size(); ++k)
      os << "  chg |= gate_wport_" << k << "(V, M, D, S);\n";
    os << "  gate_eval(V, M, D);\n";
    os << "  return chg;\n";
    os << "}\n";
  }

  /// Pre-edge sample of every write port's enable, then (when enabled in
  /// some lane) its address and data nets.
  void emit_write_port_samples() {
    const auto src = [&](std::size_t k) {
      return num(std::uint64_t{s.wp_nets[k]} * lw);
    };
    for (const Schedule::WritePort& wp : s.wports) {
      os << "  if (v_snap<" << lw << ">(S + " << num(sample_at(wp.base))
         << ", V + " << src(wp.base) << ")) {\n";
      for (std::size_t k = wp.base + 1; k <= wp.base + wp.addr_n + wp.width;
           ++k)
        os << "    v_cpy<" << lw << ">(S + " << num(sample_at(k)) << ", V + "
           << src(k) << ");\n";
      os << "  }\n";
    }
  }

  /// What every part starts with: the preludes and this design's lane
  /// constants, and the memory-port helpers when the part calls them.
  std::string header(bool memory) const {
    std::ostringstream h;
    h << jit::prelude_header();
    h << "constexpr int L = " << lw << ";\n";
    h << "constexpr u64 TM = " << TM() << ";\n";
    // Store-only chunk drivers: the suffix sweep recomputes every
    // downstream cell anyway, so the change-accumulating v_* drivers
    // would pay an xor/or reduction per word for nothing.
    h << jit::lane_ops_prelude();
    h << jit::step_prelude();
    if (memory) h << jit::gate_memory_prelude();
    h << "}  // namespace\n\n";
    return h.str();
  }

  /// Part 0 holds the ABI symbols, the eval dispatch and the step; the
  /// level chunks and write-port commits follow, hidden.
  jit::Parts run() {
    jit::Parts parts(1);
    const std::vector<std::uint32_t> ends = emit_level_chunks(parts);
    emit_write_ports(parts);
    os << header(false);
    os << "extern \"C\" unsigned osss_gate_abi() { return 2u; }\n";
    os << "extern \"C\" unsigned osss_gate_lanes() { return " << lanes
       << "u; }\n";
    os << "extern \"C\" unsigned long long osss_gate_nets() { return "
       << nl.cells().size() << "ull; }\n";
    os << "extern \"C\" unsigned long long osss_gate_scratch() { return "
       << s.scratch_words() << "ull; }\n\n";
    for (std::size_t k = 0; k < ends.size(); ++k)
      os << jit::hidden_function() << "void gate_levels_" << k
         << kChunkParams << ";\n";
    for (std::size_t k = 0; k < s.wports.size(); ++k)
      os << jit::hidden_function() << "unsigned gate_wport_" << k
         << kPortParams << ";\n";
    os << "\n";
    emit_eval(ends);
    emit_step();
    parts[0] = take();
    return parts;
  }
};

}  // namespace

jit::Parts emit_netlist_cpp(const Netlist& nl, unsigned lanes) {
  return emit_netlist_cpp(nl, Schedule(nl, lanes));
}

jit::Parts emit_netlist_cpp(const Netlist& nl, const Schedule& s) {
  return Emitter(nl, s).run();
}

}  // namespace osss::gate
