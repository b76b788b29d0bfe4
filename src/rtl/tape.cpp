#include "rtl/tape.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "jit/runtime.hpp"
#include "rtl/tape_detail.hpp"

namespace osss::rtl::tape {

using detail::top_mask;
using detail::words_of;

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
      fv[id] = eval_op(nd, [&](std::size_t i) -> const Bits& {
        return fv[nd.ins[i]];
      });
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
  jit::to_csr(instr_out, p.instr_fl_off, p.instr_fl);
  jit::to_csr(input_out, p.input_fl_off, p.input_fl);
  jit::to_csr(reg_out, p.reg_fl_off, p.reg_fl);
  jit::to_csr(mem_out, p.mem_fl_off, p.mem_fl);

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

  // ---- pass 10: the sampling rule (see Program) -------------------------
  const auto overwritten = [&](std::uint32_t off, std::size_t words) {
    for (const Reg& r : p.regs)
      if (off < r.q + std::size_t{r.words} * lanes && r.q < off + words)
        return true;
    return false;
  };
  const auto sample = [&](std::uint32_t off, std::size_t words_per_lane) {
    const std::size_t words = words_per_lane * lanes;
    if (off == kNoSlot || !overwritten(off, words)) return kNoSlot;
    const auto at = static_cast<std::uint32_t>(p.sample_words);
    p.sample_words += words;
    return at;
  };
  for (Reg& r : p.regs) {
    r.d_at = sample(r.d, r.words);
    r.en_at = sample(r.en, 1);
  }
  for (Mem& pm : p.mems)
    for (WritePort& w : pm.writes) {
      w.addr_at = sample(w.addr, w.addr_words);
      w.data_at = sample(w.data, pm.words);
      w.en_at = sample(w.en, 1);
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

}  // namespace osss::rtl::tape
