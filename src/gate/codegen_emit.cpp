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
// nets) tuple instead of one per read-data bit — and lowered to one-hot
// row masks over lane words when the addressable row count is small
// against the lane count, so a gather costs O(rows * width) word ops for
// all lanes at once instead of O(lanes * width) bit probes.  Deep
// memories keep a per-lane sparse gather (touching every row would lose
// when rows >> lanes).  The write-port commits make the same choice.
// `osss_gate_step` samples and commits the DFFs by walking constant tables
// (D and Q offsets, CSR dirty marks) rather than one unrolled copy per
// flip-flop, calls the write-port commits and ends with an inline settle
// call, so a clock cycle is one native call.
//
// When a row span (width * LW words) tiles into the flat `fv` tier
// (flat_ops_prelude: always the widest vector the target enables, FW words
// per chunk regardless of LW), row-mask gathers and write commits sweep
// whole rows in explicit fv chunks against a cyclically replicated row
// mask — one chunk covers several data bits across lane words.  This
// pins vectorization the auto-vectorizer finds only erratically (GCC's
// SLP pass is context-sensitive enough to drop it under benign
// reorderings) and widens it past the per-tap word.
//
// Layout contract (must match gate::NativeEngine exactly): lane word w of
// net n lives at V[n*LW + w]; lane word w of data bit b of memory entry a
// lives at M[mi][(a*width + b)*LW + w]; all per-step mutable state lives in
// the engine-owned scratch S so a cached object stays stateless.
//
// Masking invariant: every arena and memory word only ever holds bits of
// valid lanes (the engine masks on input, the drivers mask on inversion),
// so one-hot row masks built from complemented address words may carry
// garbage in dead-lane bits — ANDing with a memory or enable word always
// confines the result.

#include <cstdint>
#include <cstdio>
#include <algorithm>
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

  std::string LW() const { return num(lw); }
  std::string TM() const { return hex(tm); }

  /// Rows a port can actually address: the memory depth capped by the
  /// reach of its address bits.
  static std::uint64_t row_bound(std::uint64_t depth, std::size_t addr_bits) {
    if (addr_bits < 63)
      depth = std::min(depth, std::uint64_t{1} << addr_bits);
    return depth;
  }
  /// One-hot row masks win while the row sweep is small against the lane
  /// count (a scalar engine always gathers: one lane never beats a sweep).
  bool use_row_masks(std::uint64_t bound) const {
    return lanes > 1 && bound <= std::uint64_t{4} * lanes;
  }
  /// The flat `fv` sweep walks whole memory rows (width * LW contiguous
  /// words) in widest-ISA chunks against a cyclically replicated row
  /// mask, so the span must tile: lane words a power of two and the row
  /// span divisible by 8 (the widest FW any target tier picks), capped
  /// so the gather's stack accumulator stays small.
  bool flat_rows_ok(std::uint32_t width) const {
    const std::uint64_t span = std::uint64_t{width} * lw;
    return (lw & (lw - 1)) == 0 && span % 8 == 0 && span <= 2048;
  }
  /// Replicate each address net's lane words (and their complement)
  /// cyclically out to MR words, once per port, so per-row masks build
  /// with pure fv ops.  `arena` names the source array ("V" or "S"),
  /// `off(i)` its word offset for address bit i.
  template <typename OffsetFn>
  void emit_addr_reps(const char* indent, std::size_t addr_bits,
                      const char* arena, OffsetFn off) {
    for (std::size_t i = 0; i < addr_bits; ++i) {
      os << indent << "alignas(64) u64 ar" << i << "[MR], cr" << i
         << "[MR];\n";
      os << indent << "for (int k = 0; k < MR; ++k) { ar" << i << "[k] = "
         << arena << "[" << num(off(i)) << " + (k & " << (lw - 1)
         << ")]; cr" << i << "[k] = ~ar" << i << "[k]; }\n";
    }
  }
  /// The fv expression for one MR-chunk (`+ k`) of row `a`'s one-hot
  /// mask: AND of the matching replicated address (or complement)
  /// chunks, seeded with `seed` ("" = no seed; all-ones when n == 0).
  static std::string mask_chain(const std::string& seed, std::uint64_t a,
                                std::size_t addr_bits) {
    std::string e = seed;
    for (std::size_t i = 0; i < addr_bits; ++i) {
      std::string term = (a >> i) & 1 ? "fld(ar" : "fld(cr";
      term += num(i);
      term += " + k)";
      e = e.empty() ? std::move(term) : "f_and(" + e + ", " + term + ")";
    }
    return e.empty() ? "fbc(~0ull)" : e;
  }

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

  /// Emit the one-hot address-match expression for row `a` over hoisted
  /// address words a0..a{n-1} into variable `var` seeded with `seed`.
  void emit_row_mask(const char* indent, const std::string& var,
                     const std::string& seed, std::uint64_t a,
                     std::size_t addr_bits) {
    os << indent << "u64 " << var << " = " << seed << ";\n";
    for (std::size_t i = 0; i < addr_bits; ++i)
      os << indent << var << " &= " << ((a >> i) & 1 ? "a" : "~a") << i
         << ";\n";
  }

  /// One grouped read port: every kMemQ cell sharing (mem, address nets).
  void emit_memq_group(const std::vector<NetId>& cells) {
    const Cell& c0 = nl.cells()[cells.front()];
    const MemMacro& m = nl.memories()[c0.param];
    const std::size_t n = c0.ins.size();
    const std::uint64_t bound = row_bound(m.depth, n);
    os << "    { // mem " << c0.param << " read port: depth " << m.depth
       << ", " << cells.size() << " tap(s)\n";
    os << "      const u64* mp = M[" << c0.param << "];\n";
    if (use_row_masks(bound) && flat_rows_ok(m.width) &&
        std::uint64_t{cells.size()} * 4 >= m.width) {
      // Flat row-mask gather: build each row's replicated one-hot mask
      // with pure fv ops over per-port replicated address chunks, then
      // accumulate the whole row into a local buffer — one chunk covers
      // several data bits across lane words.  This pins vectorization
      // the auto-vectorizer only sometimes finds and widens it past the
      // per-tap word.  Worth it only when taps cover a decent fraction
      // of the row (the sweep always reads the full width).  Dead-lane
      // garbage in the complemented chunks is confined by the memory
      // words (masking invariant).
      const std::uint64_t span = std::uint64_t{m.width} * lw;
      os << "      constexpr int MR = FW > L ? FW : L;\n";
      emit_addr_reps("      ", n, "V",
                     [&](std::size_t i) { return std::uint64_t{c0.ins[i]} * lw; });
      os << "      alignas(64) u64 mrep[MR];\n";
      os << "      alignas(64) u64 q[" << span << "] = {};\n";
      for (std::uint64_t a = 0; a < bound; ++a) {
        os << "      {\n";
        os << "        fv anyv = fbc(0x0ull);\n";
        os << "        for (int k = 0; k < MR; k += FW) {\n";
        os << "          const fv mk = " << mask_chain("", a, n) << ";\n";
        os << "          fst(mrep + k, mk); anyv = f_or(anyv, mk);\n";
        os << "        }\n";
        os << "        if (f_any(anyv)) {\n";
        os << "          const u64* r = mp + " << num(a * span) << "u;\n";
        os << "          for (int c = 0; c < " << span << "; c += FW)\n";
        os << "            fst(q + c, f_or(fld(q + c), "
              "f_and(fld(mrep + (c & (MR - 1))), fld(r + c))));\n";
        os << "        }\n";
        os << "      }\n";
      }
      for (std::size_t t = 0; t < cells.size(); ++t)
        os << "      v_cpy<" << lw << ">(V + "
           << num(std::uint64_t{cells[t]} * lw) << ", q + "
           << num(std::uint64_t{nl.cells()[cells[t]].param2} * lw) << ");\n";
    } else if (use_row_masks(bound)) {
      // Row-mask gather: one sweep of the addressable rows per lane word
      // serves every tap; dead-lane garbage in the masks is confined by
      // the memory words (see masking invariant above).
      os << "      for (int w = 0; w < " << lw << "; ++w) {\n";
      for (std::size_t i = 0; i < n; ++i)
        os << "        const u64 a" << i << " = V["
           << num(std::uint64_t{c0.ins[i]} * lw) << " + w];\n";
      for (std::size_t t = 0; t < cells.size(); ++t)
        os << "        u64 q" << t << " = 0;\n";
      for (std::uint64_t a = 0; a < bound; ++a) {
        os << "        {\n";
        emit_row_mask("          ", "m", "~0ull", a, n);
        os << "          if (m) {\n";
        os << "            const u64* r = mp + "
           << num(a * m.width * lw) << "u + w;\n";
        for (std::size_t t = 0; t < cells.size(); ++t)
          os << "            q" << t << " |= m & r["
             << num(std::uint64_t{nl.cells()[cells[t]].param2} * lw)
             << "];\n";
        os << "          }\n";
        os << "        }\n";
      }
      for (std::size_t t = 0; t < cells.size(); ++t)
        os << "        V[" << num(std::uint64_t{cells[t]} * lw)
           << " + w] = q" << t << ";\n";
      os << "      }\n";
    } else {
      // Sparse per-lane gather: decode each lane's address once, then
      // probe one row for every tap.
      os << "      for (int l = 0; l < " << lanes << "; ++l) {\n";
      os << "        u64 a = 0;\n";
      for (std::size_t i = n; i-- > 0;)
        os << "        a = (a << 1) | ((V["
           << num(std::uint64_t{c0.ins[i]} * lw)
           << " + (l >> 6)] >> (l & 63)) & 1u);\n";
      os << "        const int w = l >> 6;\n";
      os << "        const u64 bm = 1ull << (l & 63);\n";
      os << "        if (a < " << m.depth << "u) {\n";
      os << "          const u64* r = mp + a * "
         << num(std::uint64_t{m.width} * lw) << "u + w;\n";
      for (std::size_t t = 0; t < cells.size(); ++t) {
        const std::string off = num(std::uint64_t{cells[t]} * lw);
        os << "          V[" << off << " + w] = (V[" << off
           << " + w] & ~bm) | (((r["
           << num(std::uint64_t{nl.cells()[cells[t]].param2} * lw)
           << "] >> (l & 63)) & 1u) << (l & 63));\n";
      }
      os << "        } else {\n";
      for (std::size_t t = 0; t < cells.size(); ++t)
        os << "          V[" << num(std::uint64_t{cells[t]} * lw)
           << " + w] &= ~bm;\n";
      os << "        }\n";
      os << "      }\n";
    }
    os << "    }\n";
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
          os << header() << jit::hidden_function() << "void gate_levels_"
             << ends.size() << kChunkParams << " {\n";
          os << "  (void)M;\n";
          os << "  const vw vc0 = vbc(0x0ull); (void)vc0;\n";
          os << "  const vw vc1 = vbc(TM); (void)vc1;\n";
          os << code << "}\n";
          parts.push_back(take());
          ends.push_back(static_cast<std::uint32_t>(end));
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

  /// One memory write port's commit (`gate_wport_<k>`): merges the sampled
  /// enable, address and data into the memory, dirty-marks its read
  /// levels and returns nonzero when a word changed.
  void emit_write_port(std::size_t k, const Schedule::WritePort& wp) {
    const std::uint32_t mem = wp.mem;
    const MemMacro& m = nl.memories()[mem];
    const std::size_t n = wp.addr_n;
    const std::uint64_t en_at = sample_at(wp.base),
                        addr_at = sample_at(wp.base + 1),
                        data_at = sample_at(wp.base + 1 + n);
    const std::uint64_t bound = row_bound(m.depth, n);
    const std::string mk = marks(s.mem_fl_off, s.mem_fl, mem);
    os << jit::hidden_function() << "unsigned gate_wport_" << k
       << kPortParams << " {\n";
    os << "  (void)V; (void)M; (void)D; (void)S;\n";
    os << "  unsigned chg = 0;\n";
    os << "  { // mem " << mem << " write port: depth " << m.depth
       << ", width " << m.width << "\n";
    os << "    u64 ch = 0;\n";
    if (use_row_masks(bound) && flat_rows_ok(m.width)) {
      // Flat row-mask merge: build each row's replicated select mask
      // (enable AND address match) with pure fv ops and merge whole
      // rows in fv chunks — one select/merge covers several data bits
      // across lane words.  Change detection rides along as a vector
      // accumulator reduced once per port.  sel is seeded from the
      // sampled enable chunks, so complemented address garbage never
      // escapes.
      const std::uint64_t span = std::uint64_t{m.width} * lw;
      std::string eany;
      for (unsigned w = 0; w < lw; ++w) {
        eany += w ? " | S[" : "S[";
        eany += num(en_at + w);
        eany += "]";
      }
      os << "    if (" << eany << ") {\n";
      os << "      constexpr int MR = FW > L ? FW : L;\n";
      os << "      alignas(64) u64 enr[MR];\n";
      os << "      for (int k = 0; k < MR; ++k) enr[k] = S["
         << num(en_at) << " + (k & " << (lw - 1) << ")];\n";
      emit_addr_reps("      ", n, "S",
                     [&](std::size_t i) { return addr_at + i * lw; });
      os << "      alignas(64) u64 srep[MR];\n";
      os << "      fv chv = fbc(0x0ull);\n";
      os << "      u64* const mb = M[" << mem << "];\n";
      os << "      const u64* const sd = S + " << num(data_at) << ";\n";
      for (std::uint64_t a = 0; a < bound; ++a) {
        os << "      {\n";
        os << "        fv anyv = fbc(0x0ull);\n";
        os << "        for (int k = 0; k < MR; k += FW) {\n";
        os << "          const fv sk = " << mask_chain("fld(enr + k)", a, n)
           << ";\n";
        os << "          fst(srep + k, sk); anyv = f_or(anyv, sk);\n";
        os << "        }\n";
        os << "        if (f_any(anyv)) {\n";
        os << "          u64* e = mb + " << num(a * span) << "u;\n";
        os << "          for (int c = 0; c < " << span << "; c += FW) {\n";
        os << "            const fv sv = fld(srep + (c & (MR - 1)));\n";
        os << "            const fv ov = fld(e + c);\n";
        os << "            const fv nv = f_or(f_andn(sv, ov), "
              "f_and(sv, fld(sd + c)));\n";
        os << "            chv = f_or(chv, f_xor(nv, ov));\n";
        os << "            fst(e + c, nv);\n";
        os << "          }\n";
        os << "        }\n";
        os << "      }\n";
      }
      os << "      alignas(64) u64 chb[FW];\n";
      os << "      fst(chb, chv);\n";
      os << "      for (int k = 0; k < FW; ++k) ch |= chb[k];\n";
      os << "    }\n";
    } else if (use_row_masks(bound)) {
      // Row-mask merge: sel = enabled lanes writing row `a`; every data
      // bit merges with two word ops.  sel is confined by the sampled
      // enable word, so complemented address garbage never escapes.
      os << "    for (int w = 0; w < " << lw << "; ++w) {\n";
      os << "      const u64 en = S[" << num(en_at) << " + w];\n";
      os << "      if (!en) continue;\n";
      for (std::size_t i = 0; i < n; ++i)
        os << "      const u64 a" << i << " = S[" << num(addr_at + i * lw)
           << " + w];\n";
      for (std::uint64_t a = 0; a < bound; ++a) {
        os << "      {\n";
        emit_row_mask("        ", "sel", "en", a, n);
        os << "        if (sel) {\n";
        os << "          u64* e = M[" << mem << "] + "
           << num(a * m.width * lw) << "u + w;\n";
        os << "          const u64* s = S + " << num(data_at) << " + w;\n";
        for (std::uint32_t b = 0; b < m.width; ++b) {
          const std::string off = num(std::uint64_t{b} * lw);
          os << "          { const u64 nw = (e[" << off
             << "] & ~sel) | (sel & s[" << off << "]); ch |= nw ^ e[" << off
             << "]; e[" << off << "] = nw; }\n";
        }
        os << "        }\n";
        os << "      }\n";
      }
      os << "    }\n";
    } else {
      os << "    for (int l = 0; l < " << lanes << "; ++l) {\n";
      os << "      if (((S[" << num(en_at)
         << " + (l >> 6)] >> (l & 63)) & 1u) == 0) continue;\n";
      os << "      u64 a = 0;\n";
      for (std::size_t i = n; i-- > 0;)
        os << "      a = (a << 1) | ((S[" << num(addr_at + i * lw)
           << " + (l >> 6)] >> (l & 63)) & 1u);\n";
      os << "      if (a >= " << m.depth << "u) continue;\n";
      os << "      const u64 bm = 1ull << (l & 63);\n";
      os << "      u64* e = M[" << mem << "] + a * "
         << num(std::uint64_t{m.width} * lw) << "u + (l >> 6);\n";
      os << "      const u64* s = S + " << num(data_at) << " + (l >> 6);\n";
      os << "      for (unsigned b = 0; b < " << m.width << "u; ++b) {\n";
      os << "        const u64 nb = (s[b * " << lw << "u] >> (l & 63)) & 1u;\n";
      os << "        const u64 nw = (e[b * " << lw
         << "u] & ~bm) | (nb << (l & 63));\n";
      os << "        ch |= nw ^ e[b * " << lw << "u];\n";
      os << "        e[b * " << lw << "u] = nw;\n";
      os << "      }\n";
      os << "    }\n";
    }
    if (mk.empty())
      os << "    if (ch) chg = 1u;\n";
    else
      os << "    if (ch) {" << mk << " chg = 1u; }\n";
    os << "  }\n";
    os << "  return chg;\n";
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
          parts.push_back(header() + code);
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
    const auto table = [&](const char* type, const char* name,
                           const auto& values) {
      os << "  static const " << type << " " << name << "[] = {";
      for (std::size_t i = 0; i < values.size(); ++i)
        os << (i % 12 == 0 ? "\n    " : " ") << num(values[i]) << ",";
      os << "\n  };\n";
    };
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
      table("u64", "dff_d", d_at);
      table("u64", "dff_q", q_at);
      if (!fl.empty()) {
        table("unsigned", "dff_fo", fo);
        table("unsigned", "dff_fl", fl);
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
  /// constants.
  std::string header() const {
    std::ostringstream h;
    h << jit::prelude_header();
    h << "constexpr int L = " << lw << ";\n";
    h << "constexpr u64 TM = " << TM() << ";\n";
    // Store-only chunk drivers: the suffix sweep recomputes every
    // downstream cell anyway, so the change-accumulating v_* drivers
    // would pay an xor/or reduction per word for nothing.
    h << jit::lane_ops_prelude();
    // Flat widest-ISA drivers for whole-row memory sweeps (gather and
    // write commit) — independent of the vw lane-chunk tier.
    h << jit::flat_ops_prelude();
    h << jit::step_prelude();
    h << "}  // namespace\n\n";
    return h.str();
  }

  /// Part 0 holds the ABI symbols, the eval dispatch and the step; the
  /// level chunks and write-port commits follow, hidden.
  jit::Parts run() {
    jit::Parts parts(1);
    const std::vector<std::uint32_t> ends = emit_level_chunks(parts);
    emit_write_ports(parts);
    os << header();
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
