#include "rtl/tape.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "par/batch.hpp"
#include "rtl/tape_detail.hpp"

namespace osss::rtl::tape {

namespace {

using detail::bits_from_words;
using detail::mask64;
using detail::span_fill;
using detail::span_lshr;
using detail::span_shl;
using detail::store1;
using detail::storeN;
using detail::top_mask;
using detail::words_of;

/// Bits-semantics evaluator for constant folding; must mirror the
/// interpreter (rtl::Simulator::compute) exactly — the tape is
/// differentially tested against it.
Bits fold_value(const Node& n, const std::vector<Bits>& fv) {
  auto in = [&](std::size_t i) -> const Bits& { return fv[n.ins[i]]; };
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
    case Op::kShlV:
      return in(0).shl(static_cast<unsigned>(in(1).to_u64() & 0xffffffffu));
    case Op::kLshrV:
      return in(0).lshr(static_cast<unsigned>(in(1).to_u64() & 0xffffffffu));
    case Op::kEq: return Bits(1, in(0) == in(1) ? 1u : 0u);
    case Op::kNe: return Bits(1, in(0) != in(1) ? 1u : 0u);
    case Op::kUlt: return Bits(1, Bits::ult(in(0), in(1)) ? 1u : 0u);
    case Op::kUle: return Bits(1, Bits::ule(in(0), in(1)) ? 1u : 0u);
    case Op::kSlt: return Bits(1, Bits::slt(in(0), in(1)) ? 1u : 0u);
    case Op::kSle: return Bits(1, Bits::sle(in(0), in(1)) ? 1u : 0u);
    case Op::kMux: return in(0).bit(0) ? in(1) : in(2);
    case Op::kSlice: return in(0).slice(n.param + n.width - 1, n.param);
    case Op::kConcat: {
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
    default: break;
  }
  throw std::logic_error("tape: cannot fold op");
}

}  // namespace

NodeAnalysis analyze(const Module& m) {
  m.validate();

  NodeAnalysis na;
  const std::size_t n = m.node_count();
  const std::vector<NodeId> order = m.topo_order();

  // ---- pass 1: constant folding -----------------------------------------
  // folded[id] non-empty <=> the node's value is a compile-time constant.
  std::vector<Bits>& fv = na.folded;
  fv.assign(n, Bits());
  for (const NodeId id : order) {
    const Node& nd = m.node(id);
    if (nd.op == Op::kConst) {
      fv[id] = nd.value;
      continue;
    }
    if (nd.op == Op::kInput || nd.op == Op::kReg || nd.op == Op::kMemRead)
      continue;
    bool all_const = true;
    for (const NodeId i : nd.ins)
      if (fv[i].empty()) {
        all_const = false;
        break;
      }
    if (all_const) {
      fv[id] = fold_value(nd, fv);
      ++na.const_folded;
      continue;
    }
    // A constant over-shift is zero no matter what the data operand holds.
    if ((nd.op == Op::kShlI || nd.op == Op::kLshrI) && nd.param >= nd.width) {
      fv[id] = Bits(nd.width);
      ++na.const_folded;
    }
  }

  // ---- pass 2: alias fusion ---------------------------------------------
  // No-op casts share their operand's slot.  Sound because the arena keeps
  // bits above a node's width zero, so a zext that doesn't grow the word
  // count (or a full-width slice / width-preserving sext / unary concat) is
  // already materialized by its operand.
  std::vector<NodeId>& alias = na.alias;
  alias.assign(n, kInvalidNode);
  for (const NodeId id : order) {
    if (!fv[id].empty()) continue;
    const Node& nd = m.node(id);
    switch (nd.op) {
      case Op::kZExt:
        if (words_of(nd.width) == words_of(m.node(nd.ins[0]).width))
          alias[id] = nd.ins[0];
        break;
      case Op::kSExt:
        if (nd.width == m.node(nd.ins[0]).width) alias[id] = nd.ins[0];
        break;
      case Op::kSlice:
        if (nd.param == 0 && nd.width == m.node(nd.ins[0]).width)
          alias[id] = nd.ins[0];
        break;
      case Op::kConcat:
        if (nd.ins.size() == 1) alias[id] = nd.ins[0];
        break;
      default:
        break;
    }
    if (alias[id] != kInvalidNode) ++na.fused;
  }
  auto rep = [&](NodeId id) {
    while (alias[id] != kInvalidNode) id = alias[id];
    return id;
  };

  // ---- pass 3: slice-chain composition ----------------------------------
  // slice(slice(x)) reads x directly with the accumulated low offset, and a
  // slice hops through a zext whenever its window stays inside the original
  // value.  sliced[id] = {ultimate source, accumulated lo}.
  std::vector<std::pair<NodeId, unsigned>>& sliced = na.sliced;
  sliced.assign(n, {kInvalidNode, 0u});
  for (const NodeId id : order) {
    if (!fv[id].empty() || alias[id] != kInvalidNode) continue;
    const Node& nd = m.node(id);
    if (nd.op != Op::kSlice) continue;
    NodeId src = rep(nd.ins[0]);
    unsigned lo = nd.param;
    for (;;) {
      if (!fv[src].empty()) break;  // landed on a constant
      const Node& s = m.node(src);
      if (s.op == Op::kSlice) {
        lo += sliced[src].second;  // inner slice already composed
        src = sliced[src].first;
        ++na.fused;
        continue;
      }
      if (s.op == Op::kZExt && lo + nd.width <= m.node(s.ins[0]).width) {
        src = rep(s.ins[0]);
        ++na.fused;
        continue;
      }
      break;
    }
    sliced[id] = {src, lo};
  }

  // ---- effective operands (post-fusion) per candidate instruction -------
  auto is_source = [&](const Node& nd) {
    return nd.op == Op::kInput || nd.op == Op::kReg || nd.op == Op::kConst;
  };
  std::vector<std::vector<NodeId>>& eff = na.eff;
  eff.assign(n, {});
  for (const NodeId id : order) {
    if (!fv[id].empty() || alias[id] != kInvalidNode) continue;
    const Node& nd = m.node(id);
    if (is_source(nd)) continue;
    auto& e = eff[id];
    switch (nd.op) {
      case Op::kSlice:
        e.push_back(sliced[id].first);
        break;
      case Op::kMemRead:
        e.push_back(rep(nd.ins[0]));
        break;
      default:
        e.reserve(nd.ins.size());
        for (const NodeId i : nd.ins) e.push_back(rep(i));
        break;
    }
  }

  // ---- pass 4: liveness from the sequential/output roots ----------------
  std::vector<char>& live = na.live;
  live.assign(n, 0);
  std::vector<NodeId> work;
  auto mark = [&](NodeId raw) {
    const NodeId r = rep(raw);
    if (!fv[r].empty()) return;  // constants live in the pool
    if (!live[r]) {
      live[r] = 1;
      work.push_back(r);
    }
  };
  for (const auto& out : m.outputs()) mark(out.node);
  for (const Register& r : m.registers()) {
    mark(r.d);
    if (r.enable != kInvalidNode) mark(r.enable);
  }
  for (const Memory& mem : m.memories())
    for (const auto& w : mem.writes) {
      mark(w.addr);
      mark(w.data);
      mark(w.enable);
    }
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    for (const NodeId r : eff[id]) mark(r);
  }

  // ---- fate classification (drives CompileStats and lint RTL-003) -------
  na.fate.assign(n, NodeAnalysis::Fate::kLive);
  for (NodeId id = 0; id < n; ++id) {
    const Node& nd = m.node(id);
    if (!fv[id].empty())
      na.fate[id] = NodeAnalysis::Fate::kFolded;
    else if (nd.op == Op::kInput || nd.op == Op::kReg)
      na.fate[id] = NodeAnalysis::Fate::kSource;
    else if (alias[id] != kInvalidNode)
      na.fate[id] = NodeAnalysis::Fate::kAliased;
    else if (!live[id])
      na.fate[id] = NodeAnalysis::Fate::kDead;
  }
  for (NodeId id = 0; id < n; ++id)
    if (na.fate[id] == NodeAnalysis::Fate::kDead) ++na.pruned;
  return na;
}

Program Program::compile(const Module& m, unsigned lanes) {
  if (lanes == 0 || lanes > kMaxLanes)
    throw std::logic_error("rtl::tape: lanes must be in 1..512");

  const std::size_t n = m.node_count();
  for (NodeId id = 0; id < n; ++id)
    if (m.node(id).width > 255 * 64)
      throw std::logic_error("rtl::tape: node width too large");

  NodeAnalysis na = analyze(m);  // validates m
  const std::vector<NodeId> order = m.topo_order();
  const std::vector<Bits>& fv = na.folded;
  const std::vector<NodeId>& alias = na.alias;
  const std::vector<std::pair<NodeId, unsigned>>& sliced = na.sliced;
  const std::vector<std::vector<NodeId>>& eff = na.eff;
  const std::vector<char>& live = na.live;
  auto rep = [&](NodeId id) { return na.rep(id); };
  auto is_source = [&](const Node& nd) {
    return nd.op == Op::kInput || nd.op == Op::kReg || nd.op == Op::kConst;
  };

  Program p;
  p.lanes = lanes;
  p.stats.const_folded = na.const_folded;
  p.stats.fused = na.fused;
  p.stats.pruned = na.pruned;

  // ---- pass 5: levelization of live instructions ------------------------
  auto is_instr = [&](NodeId id) {
    return live[id] && fv[id].empty() && alias[id] == kInvalidNode &&
           !is_source(m.node(id));
  };
  std::vector<int> lvl(n, -1);
  int max_lvl = -1;
  for (const NodeId id : order) {
    if (!is_instr(id)) continue;
    int l = 0;
    for (const NodeId r : eff[id])
      if (fv[r].empty() && lvl[r] >= 0) l = std::max(l, lvl[r] + 1);
    lvl[id] = l;
    max_lvl = std::max(max_lvl, l);
  }
  const std::uint32_t num_levels = static_cast<std::uint32_t>(max_lvl + 1);

  // ---- pass 6: arena allocation -----------------------------------------
  // Lane-major slots: lane l of a node lives at offset + l*words.  All
  // inputs and register outputs get slots (they are driven externally /
  // sequentially); instructions get slots when live; constants are pooled
  // and deduplicated on demand.
  p.node_slot.assign(n, kNoSlot);
  p.node_width.assign(n, 0);
  for (NodeId id = 0; id < n; ++id)
    p.node_width[id] = static_cast<std::uint16_t>(m.node(id).width);
  std::size_t arena = 0;
  auto alloc = [&](unsigned words) {
    const std::uint32_t off = static_cast<std::uint32_t>(arena);
    arena += std::size_t{words} * lanes;
    return off;
  };
  for (const auto& in : m.inputs())
    p.node_slot[in.node] = alloc(words_of(m.node(in.node).width));
  for (const Register& r : m.registers())
    p.node_slot[r.q] = alloc(words_of(m.node(r.q).width));
  for (const NodeId id : order)
    if (is_instr(id)) p.node_slot[id] = alloc(words_of(m.node(id).width));

  std::unordered_map<Bits, std::uint32_t, sysc::BitsHash> pool;
  auto const_slot = [&](const Bits& v) {
    const auto it = pool.find(v);
    if (it != pool.end()) return it->second;
    const std::uint32_t off = alloc(words_of(v.width()));
    pool.emplace(v, off);
    p.const_init.emplace_back(off, v);
    return off;
  };
  auto slot_of = [&](NodeId raw) {
    const NodeId r = rep(raw);
    if (!fv[r].empty()) return const_slot(fv[r]);
    return p.node_slot[r];
  };
  // Width of the value an operand slot actually holds (constant pool slots
  // carry the folded value's width).
  auto src_width = [&](NodeId raw) {
    const NodeId r = rep(raw);
    return fv[r].empty() ? m.node(r).width : fv[r].width();
  };

  // ---- pass 7: emission, grouped by level -------------------------------
  auto emit = [&](NodeId id) {
    const Node& nd = m.node(id);
    Instr ins;
    ins.width = static_cast<std::uint16_t>(nd.width);
    ins.dw = static_cast<std::uint8_t>(words_of(nd.width));
    ins.mask = top_mask(nd.width);
    ins.dst = p.node_slot[id];
    const bool one = ins.dw == 1;
    switch (nd.op) {
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        ins.a = slot_of(nd.ins[0]);
        ins.b = slot_of(nd.ins[1]);
        ins.aw = ins.dw;
        switch (nd.op) {
          case Op::kAdd: ins.op = one ? TOp::kAdd1 : TOp::kAddN; break;
          case Op::kSub: ins.op = one ? TOp::kSub1 : TOp::kSubN; break;
          case Op::kMul: ins.op = one ? TOp::kMul1 : TOp::kMulN; break;
          case Op::kAnd: ins.op = one ? TOp::kAnd1 : TOp::kAndN; break;
          case Op::kOr: ins.op = one ? TOp::kOr1 : TOp::kOrN; break;
          default: ins.op = one ? TOp::kXor1 : TOp::kXorN; break;
        }
        break;
      }
      case Op::kNot:
        ins.a = slot_of(nd.ins[0]);
        ins.aw = ins.dw;
        ins.op = one ? TOp::kNot1 : TOp::kNotN;
        break;
      case Op::kShlI:
      case Op::kLshrI:
      case Op::kAshrI:
        ins.a = slot_of(nd.ins[0]);
        ins.aw = ins.dw;
        ins.param = nd.param;
        ins.op = nd.op == Op::kShlI ? (one ? TOp::kShlI1 : TOp::kShlIN)
                 : nd.op == Op::kLshrI ? (one ? TOp::kLshrI1 : TOp::kLshrIN)
                                       : (one ? TOp::kAshrI1 : TOp::kAshrIN);
        break;
      case Op::kShlV:
      case Op::kLshrV:
        ins.a = slot_of(nd.ins[0]);
        ins.b = slot_of(nd.ins[1]);
        // aw carries the lane stride of the *amount* operand here.
        ins.aw = static_cast<std::uint8_t>(words_of(src_width(nd.ins[1])));
        ins.op = nd.op == Op::kShlV ? (one ? TOp::kShlV1 : TOp::kShlVN)
                                    : (one ? TOp::kLshrV1 : TOp::kLshrVN);
        break;
      case Op::kEq:
      case Op::kNe:
      case Op::kUlt:
      case Op::kUle:
      case Op::kSlt:
      case Op::kSle: {
        ins.a = slot_of(nd.ins[0]);
        ins.b = slot_of(nd.ins[1]);
        ins.a_width = static_cast<std::uint16_t>(m.node(nd.ins[0]).width);
        ins.aw = static_cast<std::uint8_t>(words_of(ins.a_width));
        const bool onew = ins.aw == 1;
        switch (nd.op) {
          case Op::kEq: ins.op = onew ? TOp::kEq1 : TOp::kEqN; break;
          case Op::kNe: ins.op = onew ? TOp::kNe1 : TOp::kNeN; break;
          case Op::kUlt: ins.op = onew ? TOp::kUlt1 : TOp::kUltN; break;
          case Op::kUle: ins.op = onew ? TOp::kUle1 : TOp::kUleN; break;
          case Op::kSlt: ins.op = onew ? TOp::kSlt1 : TOp::kSltN; break;
          default: ins.op = onew ? TOp::kSle1 : TOp::kSleN; break;
        }
        break;
      }
      case Op::kMux:
        ins.a = slot_of(nd.ins[0]);
        ins.b = slot_of(nd.ins[1]);
        ins.c = slot_of(nd.ins[2]);
        ins.aw = 1;  // 1-bit select
        ins.op = one ? TOp::kMux1 : TOp::kMuxN;
        break;
      case Op::kSlice: {
        const NodeId src = sliced[id].first;
        ins.a = slot_of(src);
        ins.param = sliced[id].second;
        ins.a_width = static_cast<std::uint16_t>(src_width(src));
        ins.aw = static_cast<std::uint8_t>(words_of(ins.a_width));
        ins.op = ins.aw == 1 ? TOp::kSlice1 : TOp::kSliceN;
        break;
      }
      case Op::kZExt:
        ins.a = slot_of(nd.ins[0]);
        ins.a_width = static_cast<std::uint16_t>(m.node(nd.ins[0]).width);
        ins.aw = static_cast<std::uint8_t>(words_of(ins.a_width));
        ins.op = TOp::kCopyN;  // materialized => word count grew
        break;
      case Op::kSExt:
        ins.a = slot_of(nd.ins[0]);
        ins.a_width = static_cast<std::uint16_t>(m.node(nd.ins[0]).width);
        ins.aw = static_cast<std::uint8_t>(words_of(ins.a_width));
        ins.op = one ? TOp::kSExt1 : TOp::kSExtN;
        break;
      case Op::kRedOr:
      case Op::kRedAnd:
      case Op::kRedXor:
        ins.a = slot_of(nd.ins[0]);
        ins.a_width = static_cast<std::uint16_t>(m.node(nd.ins[0]).width);
        ins.aw = static_cast<std::uint8_t>(words_of(ins.a_width));
        ins.op = nd.op == Op::kRedOr
                     ? (ins.aw == 1 ? TOp::kRedOr1 : TOp::kRedOrN)
                 : nd.op == Op::kRedAnd
                     ? (ins.aw == 1 ? TOp::kRedAnd1 : TOp::kRedAndN)
                     : (ins.aw == 1 ? TOp::kRedXor1 : TOp::kRedXorN);
        break;
      case Op::kConcat: {
        ins.op = TOp::kConcat;
        ins.param = static_cast<std::uint32_t>(p.parts.size());
        ins.c = static_cast<std::uint32_t>(nd.ins.size());
        // Parts pool is LSB-first; ins[0] is the MOST significant chunk.
        for (auto it = nd.ins.rbegin(); it != nd.ins.rend(); ++it) {
          ConcatPart part;
          part.off = slot_of(*it);
          part.width = static_cast<std::uint16_t>(m.node(*it).width);
          part.words =
              static_cast<std::uint16_t>(words_of(m.node(*it).width));
          p.parts.push_back(part);
        }
        break;
      }
      case Op::kMemRead:
        ins.a = slot_of(nd.ins[0]);
        ins.aw = static_cast<std::uint8_t>(words_of(src_width(nd.ins[0])));
        ins.param = nd.param;
        ins.op = TOp::kMemRead;
        break;
      default:
        throw std::logic_error("tape: unexpected op in emission");
    }
    return ins;
  };

  std::vector<std::vector<NodeId>> by_level(num_levels);
  for (const NodeId id : order)
    if (is_instr(id)) by_level[static_cast<unsigned>(lvl[id])].push_back(id);
  std::vector<std::uint32_t> instr_of(n, kNoSlot);
  p.level_offset.push_back(0);
  for (std::uint32_t L = 0; L < num_levels; ++L) {
    for (const NodeId id : by_level[L]) {
      instr_of[id] = static_cast<std::uint32_t>(p.instrs.size());
      p.instrs.push_back(emit(id));
    }
    p.level_offset.push_back(static_cast<std::uint32_t>(p.instrs.size()));
  }

  // ---- pass 8: fanout-level lists (activity gating) ---------------------
  std::vector<std::vector<std::uint32_t>> instr_out(p.instrs.size());
  std::vector<std::vector<std::uint32_t>> input_out(m.inputs().size());
  std::vector<std::vector<std::uint32_t>> reg_out(m.registers().size());
  std::vector<std::vector<std::uint32_t>> mem_out(m.memories().size());
  std::unordered_map<NodeId, std::uint32_t> input_idx;
  for (std::uint32_t i = 0; i < m.inputs().size(); ++i)
    input_idx.emplace(m.inputs()[i].node, i);
  for (const NodeId id : order) {
    if (!is_instr(id)) continue;
    const auto L = static_cast<std::uint32_t>(lvl[id]);
    for (const NodeId r : eff[id]) {
      if (!fv[r].empty()) continue;  // constants never change
      const Node& rn = m.node(r);
      if (rn.op == Op::kInput)
        input_out[input_idx.at(r)].push_back(L);
      else if (rn.op == Op::kReg)
        reg_out[rn.param].push_back(L);
      else
        instr_out[instr_of[r]].push_back(L);
    }
    if (m.node(id).op == Op::kMemRead)
      mem_out[m.node(id).param].push_back(L);
  }
  auto build_csr = [](std::vector<std::vector<std::uint32_t>>& src,
                      std::vector<std::uint32_t>& off,
                      std::vector<std::uint32_t>& fl) {
    off.reserve(src.size() + 1);
    off.push_back(0);
    for (auto& v : src) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      fl.insert(fl.end(), v.begin(), v.end());
      off.push_back(static_cast<std::uint32_t>(fl.size()));
    }
  };
  build_csr(instr_out, p.instr_fl_off, p.instr_fl);
  build_csr(input_out, p.input_fl_off, p.input_fl);
  build_csr(reg_out, p.reg_fl_off, p.reg_fl);
  build_csr(mem_out, p.mem_fl_off, p.mem_fl);

  // ---- pass 9: ports, registers, memories -------------------------------
  for (const auto& in : m.inputs()) {
    Port port;
    port.off = p.node_slot[in.node];
    port.width = static_cast<std::uint16_t>(m.node(in.node).width);
    port.words = static_cast<std::uint16_t>(words_of(port.width));
    p.inputs.push_back(port);
  }
  for (const auto& out : m.outputs()) {
    Port port;
    port.off = slot_of(out.node);
    port.width = static_cast<std::uint16_t>(m.node(out.node).width);
    port.words = static_cast<std::uint16_t>(words_of(port.width));
    p.outputs.push_back(port);
  }
  for (const Register& r : m.registers()) {
    Reg reg;
    reg.q = p.node_slot[r.q];
    reg.d = slot_of(r.d);
    if (r.enable != kInvalidNode) reg.en = slot_of(r.enable);
    reg.width = static_cast<std::uint16_t>(m.node(r.q).width);
    reg.words = static_cast<std::uint16_t>(words_of(reg.width));
    reg.init = r.init;
    p.regs.push_back(std::move(reg));
  }
  for (const Memory& mem : m.memories()) {
    Mem pm;
    pm.depth = mem.depth;
    pm.width = mem.data_width;
    pm.words = static_cast<std::uint16_t>(words_of(mem.data_width));
    for (const auto& w : mem.writes) {
      WritePort wp;
      wp.addr = slot_of(w.addr);
      wp.data = slot_of(w.data);
      wp.en = slot_of(w.enable);
      wp.addr_words =
          static_cast<std::uint16_t>(words_of(src_width(w.addr)));
      pm.writes.push_back(wp);
    }
    p.mems.push_back(std::move(pm));
  }

  // Aliases read their representative's slot; folded nodes read their
  // pooled constant when one was materialized (pruned nodes keep kNoSlot).
  for (NodeId id = 0; id < n; ++id) {
    if (alias[id] != kInvalidNode) {
      p.node_slot[id] = p.node_slot[rep(id)];
    } else if (!fv[id].empty() && p.node_slot[id] == kNoSlot) {
      const auto it = pool.find(fv[id]);
      if (it != pool.end()) p.node_slot[id] = it->second;
    }
  }

  p.arena_size = arena;
  p.stats.tape_len = static_cast<std::uint32_t>(p.instrs.size());
  p.stats.arena_words = static_cast<std::uint32_t>(arena);
  p.stats.levels = num_levels;
  return p;
}

// --- Engine ----------------------------------------------------------------

namespace {

/// The interpreted executor packs lane enables into one uint64_t, so it is
/// capped at 64 lanes; wider stimulus goes through the native backend
/// (rtl/codegen.hpp), whose sequential logic is word-mask wide.
void check_engine_lanes(unsigned lanes) {
  if (lanes == 0 || lanes > 64)
    throw std::logic_error(
        "rtl::tape: the interpreted engine supports 1..64 lanes "
        "(use the native backend for wider stimulus)");
}

}  // namespace

Engine::Engine(const Module& m, unsigned lanes)
    : prog_((check_engine_lanes(lanes), Program::compile(m, lanes))) {
  arena_.assign(prog_.arena_size, 0);
  for (const auto& [off, v] : prog_.const_init)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(off, static_cast<std::uint16_t>(words_of(v.width())), l,
                      v, nullptr);
  std::uint16_t max_dw = 1;
  for (const Instr& ins : prog_.instrs)
    max_dw = std::max<std::uint16_t>(max_dw, ins.dw);
  scratch_.assign(max_dw, 0);
  mem_.resize(prog_.mems.size());
  for (std::size_t i = 0; i < prog_.mems.size(); ++i)
    mem_[i].assign(std::size_t{prog_.mems[i].depth} * prog_.mems[i].words *
                       prog_.lanes,
                   0);
  std::uint32_t roff = 0;
  for (const auto& reg : prog_.regs) {
    reg_next_off_.push_back(roff);
    roff += reg.words * prog_.lanes;
  }
  reg_next_.assign(roff, 0);
  reg_en_.assign(prog_.regs.size(), 0);
  for (const auto& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.words, l, reg.init, nullptr);
  std::uint32_t aat = 0, dat = 0;
  for (std::uint32_t mi = 0; mi < prog_.mems.size(); ++mi)
    for (const auto& port : prog_.mems[mi].writes) {
      Wp wp;
      wp.mem = mi;
      wp.port = port;
      wp.addr_at = aat;
      wp.data_at = dat;
      wp.words = prog_.mems[mi].words;
      aat += prog_.lanes;
      dat += wp.words * prog_.lanes;
      wps_.push_back(wp);
    }
  wp_en_.assign(wps_.size(), 0);
  wp_addr_.assign(aat, 0);
  wp_data_.assign(dat, 0);
  level_dirty_.assign(prog_.stats.levels, 1);
  pending_ = true;
  // Power-on snapshot: consts + reg inits written, inputs and mems all 0.
  poweron_arena_ = arena_;
}

void Engine::write_lane_bits(std::uint32_t off, std::uint16_t words,
                             unsigned lane, const Bits& value,
                             bool* changed) {
  std::uint64_t* d = arena_.data() + off + std::size_t{lane} * words;
  for (unsigned w = 0; w < words; ++w) {
    const std::uint64_t nv = value.word(w);
    if (d[w] != nv) {
      d[w] = nv;
      if (changed != nullptr) *changed = true;
    }
  }
}

Bits Engine::read_lane_bits(std::uint32_t off, std::uint16_t words,
                            unsigned width, unsigned lane) const {
  return bits_from_words(arena_.data() + off + std::size_t{lane} * words,
                         width);
}

void Engine::mark_levels(const std::vector<std::uint32_t>& off,
                         const std::vector<std::uint32_t>& fl,
                         std::uint32_t site) {
  for (std::uint32_t i = off[site]; i < off[site + 1]; ++i)
    level_dirty_[fl[i]] = 1;
}

void Engine::mark_all_dirty() {
  std::fill(level_dirty_.begin(), level_dirty_.end(), 1);
  pending_ = true;
}

void Engine::set_input(unsigned index, const Bits& value) {
  const Program::Port& port = prog_.inputs.at(index);
  bool changed = false;
  for (unsigned l = 0; l < prog_.lanes; ++l)
    write_lane_bits(port.off, port.words, l, value, &changed);
  if (changed) {
    mark_levels(prog_.input_fl_off, prog_.input_fl, index);
    pending_ = true;
  }
}

void Engine::set_input_u64(unsigned index, std::uint64_t value) {
  const Program::Port& port = prog_.inputs.at(index);
  if (port.width < 64) value &= (std::uint64_t{1} << port.width) - 1;
  bool changed = false;
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    std::uint64_t* d = arena_.data() + port.off + std::size_t{l} * port.words;
    if (d[0] != value) {
      d[0] = value;
      changed = true;
    }
    for (unsigned w = 1; w < port.words; ++w)
      if (d[w] != 0) {
        d[w] = 0;
        changed = true;
      }
  }
  if (changed) {
    mark_levels(prog_.input_fl_off, prog_.input_fl, index);
    pending_ = true;
  }
}

void Engine::set_input_lanes(unsigned index,
                             const std::vector<std::uint64_t>& bit_lanes) {
  const Program::Port& port = prog_.inputs.at(index);
  if (bit_lanes.size() != port.width)
    throw std::logic_error("tape: set_input_lanes width mismatch");
  // One 64-bit column of the port at a time: word w of every lane.
  std::uint64_t nv[64];
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < port.words; ++w) {
    par::lane_words_to_values(bit_lanes.data() + std::size_t{w} * 64,
                              prog_.lanes, std::min(64u, port.width - w * 64),
                              nv, 1);
    std::uint64_t* d = arena_.data() + port.off + w;
    for (unsigned l = 0; l < prog_.lanes; ++l) {
      std::uint64_t& slot = d[std::size_t{l} * port.words];
      diff |= slot ^ nv[l];
      slot = nv[l];
    }
  }
  if (diff != 0) {
    mark_levels(prog_.input_fl_off, prog_.input_fl, index);
    pending_ = true;
  }
}

void Engine::set_input_values(unsigned index,
                              const std::vector<std::uint64_t>& values) {
  const Program::Port& port = prog_.inputs.at(index);
  if (port.words != 1)
    throw std::logic_error("tape: set_input_values needs a <= 64-bit port");
  if (values.size() != prog_.lanes)
    throw std::logic_error("tape: set_input_values lane count mismatch");
  const std::uint64_t mask =
      port.width < 64 ? (std::uint64_t{1} << port.width) - 1 : ~std::uint64_t{0};
  std::uint64_t* d = arena_.data() + port.off;
  std::uint64_t diff = 0;
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    const std::uint64_t nv = values[l] & mask;
    diff |= nv ^ d[l];
    d[l] = nv;
  }
  if (diff != 0) {
    mark_levels(prog_.input_fl_off, prog_.input_fl, index);
    pending_ = true;
  }
}

Bits Engine::output(unsigned index, unsigned lane) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  return read_lane_bits(port.off, port.words, port.width, lane);
}

std::uint64_t Engine::output_u64(unsigned index) {
  eval();
  return arena_[prog_.outputs.at(index).off];
}

std::vector<std::uint64_t> Engine::output_words(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  std::vector<std::uint64_t> out(port.width);
  for (unsigned w = 0; w < port.words; ++w)
    par::values_to_lane_words(arena_.data() + port.off + w, port.words,
                              prog_.lanes, std::min(64u, port.width - w * 64),
                              out.data() + std::size_t{w} * 64);
  return out;
}

std::vector<std::uint64_t> Engine::output_values(unsigned index) {
  eval();
  const Program::Port& port = prog_.outputs.at(index);
  if (port.words != 1)
    throw std::logic_error("tape: output_values needs a <= 64-bit port");
  const std::uint64_t* s = arena_.data() + port.off;
  return std::vector<std::uint64_t>(s, s + prog_.lanes);
}

Bits Engine::node_value(NodeId id, unsigned lane) {
  eval();
  if (id >= prog_.node_slot.size() || prog_.node_slot[id] == kNoSlot)
    throw std::logic_error(
        "tape: node was pruned or folded away (no arena slot)");
  const unsigned width = prog_.node_width[id];
  return read_lane_bits(prog_.node_slot[id],
                        static_cast<std::uint16_t>(words_of(width)), width,
                        lane);
}

bool Engine::node_live(NodeId id) const {
  return id < prog_.node_slot.size() && prog_.node_slot[id] != kNoSlot;
}

void Engine::eval() {
  if (!pending_) return;
  const std::size_t levels = prog_.level_offset.size() - 1;
  for (std::size_t lev = 0; lev < levels; ++lev) {
    if (!level_dirty_[lev]) {
      ++stats_.levels_skipped;
      continue;
    }
    level_dirty_[lev] = 0;
    ++stats_.levels_evaluated;
    const std::uint32_t b = prog_.level_offset[lev];
    const std::uint32_t e = prog_.level_offset[lev + 1];
    for (std::uint32_t i = b; i < e; ++i) {
      const Instr& ins = prog_.instrs[i];
      bool changed = false;
      for (unsigned l = 0; l < prog_.lanes; ++l) changed |= exec_one(ins, l);
      ++stats_.nodes_evaluated;
      if (changed) mark_levels(prog_.instr_fl_off, prog_.instr_fl, i);
    }
  }
  pending_ = false;
}

bool Engine::exec_one(const Instr& ins, unsigned lane) {
  std::uint64_t* const ar = arena_.data();
  std::uint64_t* d = ar + ins.dst + std::size_t{lane} * ins.dw;
  switch (ins.op) {
    case TOp::kAdd1:
      return store1(d, (ar[ins.a + lane] + ar[ins.b + lane]) & ins.mask);
    case TOp::kSub1:
      return store1(d, (ar[ins.a + lane] - ar[ins.b + lane]) & ins.mask);
    case TOp::kMul1:
      return store1(d, (ar[ins.a + lane] * ar[ins.b + lane]) & ins.mask);
    case TOp::kAnd1:
      return store1(d, ar[ins.a + lane] & ar[ins.b + lane]);
    case TOp::kOr1:
      return store1(d, ar[ins.a + lane] | ar[ins.b + lane]);
    case TOp::kXor1:
      return store1(d, ar[ins.a + lane] ^ ar[ins.b + lane]);
    case TOp::kNot1:
      return store1(d, ~ar[ins.a + lane] & ins.mask);
    case TOp::kShlI1:
      return store1(d, (ar[ins.a + lane] << ins.param) & ins.mask);
    case TOp::kLshrI1:
      return store1(d, ar[ins.a + lane] >> ins.param);
    case TOp::kAshrI1: {
      const std::uint64_t a = ar[ins.a + lane];
      const unsigned w = ins.width;
      const bool sign = ((a >> (w - 1)) & 1u) != 0;
      std::uint64_t v;
      if (ins.param >= w) {
        v = sign ? ins.mask : 0;
      } else {
        v = a >> ins.param;
        if (sign) v |= ins.mask ^ (ins.mask >> ins.param);
      }
      return store1(d, v);
    }
    case TOp::kShlV1: {
      const std::uint64_t amt =
          ar[ins.b + std::size_t{lane} * ins.aw] & 0xffffffffu;
      return store1(d, amt >= ins.width
                           ? 0
                           : (ar[ins.a + lane] << amt) & ins.mask);
    }
    case TOp::kLshrV1: {
      const std::uint64_t amt =
          ar[ins.b + std::size_t{lane} * ins.aw] & 0xffffffffu;
      return store1(d, amt >= ins.width ? 0 : ar[ins.a + lane] >> amt);
    }
    case TOp::kEq1:
      return store1(d, ar[ins.a + lane] == ar[ins.b + lane] ? 1u : 0u);
    case TOp::kNe1:
      return store1(d, ar[ins.a + lane] != ar[ins.b + lane] ? 1u : 0u);
    case TOp::kUlt1:
      return store1(d, ar[ins.a + lane] < ar[ins.b + lane] ? 1u : 0u);
    case TOp::kUle1:
      return store1(d, ar[ins.a + lane] <= ar[ins.b + lane] ? 1u : 0u);
    case TOp::kSlt1:
    case TOp::kSle1: {
      const unsigned sh = 64 - ins.a_width;
      const auto a = static_cast<std::int64_t>(ar[ins.a + lane] << sh);
      const auto b = static_cast<std::int64_t>(ar[ins.b + lane] << sh);
      const bool r = ins.op == TOp::kSlt1 ? a < b : a <= b;
      return store1(d, r ? 1u : 0u);
    }
    case TOp::kMux1:
      return store1(d, (ar[ins.a + lane] & 1u) != 0 ? ar[ins.b + lane]
                                                    : ar[ins.c + lane]);
    case TOp::kSlice1:
      return store1(d, (ar[ins.a + lane] >> ins.param) & ins.mask);
    case TOp::kSExt1: {
      const std::uint64_t a = ar[ins.a + lane];
      const bool sign = ((a >> (ins.a_width - 1)) & 1u) != 0;
      return store1(d, sign ? (a | (ins.mask ^ mask64(ins.a_width))) : a);
    }
    case TOp::kRedOr1:
      return store1(d, ar[ins.a + lane] != 0 ? 1u : 0u);
    case TOp::kRedAnd1:
      return store1(d, ar[ins.a + lane] == mask64(ins.a_width) ? 1u : 0u);
    case TOp::kRedXor1:
      return store1(d, std::popcount(ar[ins.a + lane]) & 1u);

    case TOp::kCopyN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      return storeN(d, s, ins.dw);
    }
    case TOp::kAddN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      std::uint64_t carry = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] + carry;
        const std::uint64_t c1 = t < carry ? 1u : 0u;
        s[w] = t + b[w];
        carry = c1 | (s[w] < b[w] ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kSubN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      std::uint64_t borrow = 0;
      for (unsigned w = 0; w < ins.dw; ++w) {
        const std::uint64_t t = a[w] - b[w];
        const std::uint64_t b1 = a[w] < b[w] ? 1u : 0u;
        s[w] = t - borrow;
        borrow = b1 | (t < borrow ? 1u : 0u);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kMulN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      for (unsigned i = 0; i < ins.dw; ++i) {
        if (a[i] == 0) continue;
        std::uint64_t carry = 0;
        for (unsigned j = 0; i + j < ins.dw; ++j) {
          const unsigned __int128 acc =
              static_cast<unsigned __int128>(a[i]) * b[j] + s[i + j] + carry;
          s[i + j] = static_cast<std::uint64_t>(acc);
          carry = static_cast<std::uint64_t>(acc >> 64);
        }
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kAndN:
    case TOp::kOrN:
    case TOp::kXorN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.dw; ++w)
        s[w] = ins.op == TOp::kAndN ? (a[w] & b[w])
               : ins.op == TOp::kOrN ? (a[w] | b[w])
                                     : (a[w] ^ b[w]);
      return storeN(d, s, ins.dw);
    }
    case TOp::kNotN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = ~a[w];
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kShlIN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      span_shl(s, a, ins.dw, ins.param);  // param < width (folded otherwise)
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kLshrIN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      span_lshr(s, a, ins.dw, ins.param);
      return storeN(d, s, ins.dw);
    }
    case TOp::kAshrIN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      std::uint64_t* s = scratch_.data();
      const unsigned w = ins.width;
      const bool sign = ((a[(w - 1) / 64] >> ((w - 1) % 64)) & 1u) != 0;
      if (ins.param >= w) {
        for (unsigned i = 0; i < ins.dw; ++i) s[i] = sign ? ~0ull : 0;
      } else {
        span_lshr(s, a, ins.dw, ins.param);
        if (sign && ins.param > 0) span_fill(s, w - ins.param, w);
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kShlVN:
    case TOp::kLshrVN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.dw;
      const std::uint64_t amt =
          ar[ins.b + std::size_t{lane} * ins.aw] & 0xffffffffu;
      std::uint64_t* s = scratch_.data();
      if (amt >= ins.width) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      } else if (ins.op == TOp::kShlVN) {
        span_shl(s, a, ins.dw, static_cast<unsigned>(amt));
        s[ins.dw - 1] &= ins.mask;
      } else {
        span_lshr(s, a, ins.dw, static_cast<unsigned>(amt));
      }
      return storeN(d, s, ins.dw);
    }
    case TOp::kEqN:
    case TOp::kNeN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      std::uint64_t diff = 0;
      for (unsigned w = 0; w < ins.aw; ++w) diff |= a[w] ^ b[w];
      const bool r = ins.op == TOp::kEqN ? diff == 0 : diff != 0;
      return store1(d, r ? 1u : 0u);
    }
    case TOp::kUltN:
    case TOp::kUleN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return store1(d, a[w] < b[w] ? 1u : 0u);
      return store1(d, ins.op == TOp::kUleN ? 1u : 0u);
    }
    case TOp::kSltN:
    case TOp::kSleN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      const std::uint64_t* b = ar + ins.b + std::size_t{lane} * ins.aw;
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      const bool sa = ((a[sw] >> sb) & 1u) != 0;
      const bool sbit = ((b[sw] >> sb) & 1u) != 0;
      if (sa != sbit) return store1(d, sa ? 1u : 0u);
      for (unsigned w = ins.aw; w-- > 0;)
        if (a[w] != b[w]) return store1(d, a[w] < b[w] ? 1u : 0u);
      return store1(d, ins.op == TOp::kSleN ? 1u : 0u);
    }
    case TOp::kMuxN: {
      const bool sel = (ar[ins.a + lane] & 1u) != 0;
      const std::uint64_t* src =
          ar + (sel ? ins.b : ins.c) + std::size_t{lane} * ins.dw;
      return storeN(d, src, ins.dw);
    }
    case TOp::kSliceN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t* s = scratch_.data();
      for (unsigned j = 0; j < ins.dw; ++j) {
        const unsigned bitpos = ins.param + j * 64;
        const unsigned ws = bitpos / 64, bs = bitpos % 64;
        std::uint64_t v = ws < ins.aw ? a[ws] >> bs : 0;
        if (bs != 0 && ws + 1 < ins.aw) v |= a[ws + 1] << (64 - bs);
        s[j] = v;
      }
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kSExtN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.aw; ++w) s[w] = a[w];
      for (unsigned w = ins.aw; w < ins.dw; ++w) s[w] = 0;
      const unsigned sw = (ins.a_width - 1) / 64, sb = (ins.a_width - 1) % 64;
      if (((a[sw] >> sb) & 1u) != 0) span_fill(s, ins.a_width, ins.width);
      s[ins.dw - 1] &= ins.mask;
      return storeN(d, s, ins.dw);
    }
    case TOp::kRedOrN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      std::uint64_t any = 0;
      for (unsigned w = 0; w < ins.aw; ++w) any |= a[w];
      return store1(d, any != 0 ? 1u : 0u);
    }
    case TOp::kRedAndN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      bool all = true;
      for (unsigned w = 0; w + 1 < ins.aw; ++w) all &= a[w] == ~0ull;
      all &= a[ins.aw - 1] == top_mask(ins.a_width);
      return store1(d, all ? 1u : 0u);
    }
    case TOp::kRedXorN: {
      const std::uint64_t* a = ar + ins.a + std::size_t{lane} * ins.aw;
      unsigned par = 0;
      for (unsigned w = 0; w < ins.aw; ++w)
        par += static_cast<unsigned>(std::popcount(a[w]));
      return store1(d, par & 1u);
    }
    case TOp::kConcat: {
      std::uint64_t* s = scratch_.data();
      for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      unsigned pos = 0;
      for (std::uint32_t pi = 0; pi < ins.c; ++pi) {
        const ConcatPart& part = prog_.parts[ins.param + pi];
        const std::uint64_t* src =
            ar + part.off + std::size_t{lane} * part.words;
        const unsigned wo = pos / 64, bo = pos % 64;
        for (unsigned w = 0; w < part.words; ++w) {
          s[wo + w] |= src[w] << bo;
          if (bo != 0 && wo + w + 1 < ins.dw) s[wo + w + 1] |= src[w] >> (64 - bo);
        }
        pos += part.width;
      }
      return storeN(d, s, ins.dw);
    }
    case TOp::kMemRead: {
      const Program::Mem& pm = prog_.mems[ins.param];
      const std::uint64_t addr = ar[ins.a + std::size_t{lane} * ins.aw];
      if (ins.dw == 1) {
        const std::uint64_t v =
            addr < pm.depth
                ? mem_[ins.param][(addr * prog_.lanes + lane) * pm.words]
                : 0;
        return store1(d, v);
      }
      std::uint64_t* s = scratch_.data();
      if (addr >= pm.depth) {
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = 0;
      } else {
        const std::uint64_t* e =
            mem_[ins.param].data() +
            (addr * prog_.lanes + lane) * pm.words;
        for (unsigned w = 0; w < ins.dw; ++w) s[w] = e[w];
      }
      return storeN(d, s, ins.dw);
    }
  }
  throw std::logic_error("tape: unknown opcode");
}

void Engine::step() {
  eval();
  const unsigned lanes = prog_.lanes;
  const std::uint64_t all =
      lanes == 64 ? ~0ull : ((std::uint64_t{1} << lanes) - 1);
  // Sample next state before committing anything: all registers and write
  // ports observe the same pre-edge values (matches the interpreter).
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const Program::Reg& reg = prog_.regs[r];
    std::uint64_t en = all;
    if (reg.en != kNoSlot) {
      en = 0;
      for (unsigned l = 0; l < lanes; ++l)
        en |= (arena_[reg.en + l] & 1u) << l;
    }
    reg_en_[r] = en;
    if (en != 0)
      std::copy(arena_.begin() + reg.d,
                arena_.begin() + reg.d + std::size_t{reg.words} * lanes,
                reg_next_.begin() + reg_next_off_[r]);
  }
  for (std::size_t wi = 0; wi < wps_.size(); ++wi) {
    const Wp& wp = wps_[wi];
    std::uint64_t en = 0;
    for (unsigned l = 0; l < lanes; ++l)
      en |= (arena_[wp.port.en + l] & 1u) << l;
    wp_en_[wi] = en;
    if (en == 0) continue;
    for (unsigned l = 0; l < lanes; ++l)
      wp_addr_[wp.addr_at + l] =
          arena_[wp.port.addr + std::size_t{l} * wp.port.addr_words];
    std::copy(arena_.begin() + wp.port.data,
              arena_.begin() + wp.port.data + std::size_t{wp.words} * lanes,
              wp_data_.begin() + wp.data_at);
  }
  // Commit registers.
  for (std::size_t r = 0; r < prog_.regs.size(); ++r) {
    const std::uint64_t en = reg_en_[r];
    if (en == 0) continue;
    const Program::Reg& reg = prog_.regs[r];
    bool changed = false;
    for (unsigned l = 0; l < lanes; ++l) {
      if (((en >> l) & 1u) == 0) continue;
      std::uint64_t* q = arena_.data() + reg.q + std::size_t{l} * reg.words;
      const std::uint64_t* nd =
          reg_next_.data() + reg_next_off_[r] + std::size_t{l} * reg.words;
      for (unsigned w = 0; w < reg.words; ++w)
        if (q[w] != nd[w]) {
          q[w] = nd[w];
          changed = true;
        }
    }
    if (changed) {
      mark_levels(prog_.reg_fl_off, prog_.reg_fl,
                  static_cast<std::uint32_t>(r));
      pending_ = true;
    }
  }
  // Commit memory writes (port order = declaration order; later ports win).
  for (std::size_t wi = 0; wi < wps_.size(); ++wi) {
    const std::uint64_t en = wp_en_[wi];
    if (en == 0) continue;
    const Wp& wp = wps_[wi];
    const Program::Mem& pm = prog_.mems[wp.mem];
    bool changed = false;
    for (unsigned l = 0; l < lanes; ++l) {
      if (((en >> l) & 1u) == 0) continue;
      const std::uint64_t addr = wp_addr_[wp.addr_at + l];
      if (addr >= pm.depth) continue;
      std::uint64_t* e =
          mem_[wp.mem].data() + (addr * lanes + l) * pm.words;
      const std::uint64_t* s =
          wp_data_.data() + wp.data_at + std::size_t{l} * pm.words;
      for (unsigned w = 0; w < pm.words; ++w)
        if (e[w] != s[w]) {
          e[w] = s[w];
          changed = true;
        }
    }
    if (changed) {
      mark_levels(prog_.mem_fl_off, prog_.mem_fl, wp.mem);
      pending_ = true;
    }
  }
  ++stats_.cycles;
}

void Engine::reset() {
  for (const Program::Reg& reg : prog_.regs)
    for (unsigned l = 0; l < prog_.lanes; ++l)
      write_lane_bits(reg.q, reg.words, l, reg.init, nullptr);
  for (auto& words : mem_) std::fill(words.begin(), words.end(), 0);
  mark_all_dirty();
}

void Engine::restore_poweron() {
  arena_ = poweron_arena_;
  for (auto& words : mem_) std::fill(words.begin(), words.end(), 0);
  mark_all_dirty();
}

Bits Engine::mem_word(unsigned mem_index, unsigned word, unsigned lane) {
  const Program::Mem& pm = prog_.mems.at(mem_index);
  if (word >= pm.depth) throw std::out_of_range("tape: mem word out of range");
  const std::uint64_t* s =
      mem_[mem_index].data() +
      (std::size_t{word} * prog_.lanes + lane) * pm.words;
  return bits_from_words(s, pm.width);
}

void Engine::poke_mem(unsigned mem_index, unsigned word, const Bits& value) {
  const Program::Mem& pm = prog_.mems.at(mem_index);
  if (word >= pm.depth) throw std::out_of_range("tape: mem word out of range");
  for (unsigned l = 0; l < prog_.lanes; ++l) {
    std::uint64_t* e = mem_[mem_index].data() +
                       (std::size_t{word} * prog_.lanes + l) * pm.words;
    for (unsigned w = 0; w < pm.words; ++w) e[w] = value.word(w);
  }
  mark_levels(prog_.mem_fl_off, prog_.mem_fl, mem_index);
  pending_ = true;
}

void Engine::poke_reg(unsigned reg_index, const Bits& value) {
  const Program::Reg& reg = prog_.regs.at(reg_index);
  for (unsigned l = 0; l < prog_.lanes; ++l)
    write_lane_bits(reg.q, reg.words, l, value, nullptr);
  mark_levels(prog_.reg_fl_off, prog_.reg_fl, reg_index);
  pending_ = true;
}

}  // namespace osss::rtl::tape
