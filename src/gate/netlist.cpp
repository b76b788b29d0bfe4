#include "gate/netlist.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace osss::gate {

namespace {
[[noreturn]] void bad(const std::string& name, const std::string& msg) {
  throw std::logic_error("gate::Netlist " + name + ": " + msg);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

const char* cell_kind_name(CellKind k) {
  switch (k) {
    case CellKind::kConst0: return "const0";
    case CellKind::kConst1: return "const1";
    case CellKind::kInput: return "input";
    case CellKind::kBuf: return "buf";
    case CellKind::kInv: return "inv";
    case CellKind::kAnd2: return "and2";
    case CellKind::kOr2: return "or2";
    case CellKind::kNand2: return "nand2";
    case CellKind::kNor2: return "nor2";
    case CellKind::kXor2: return "xor2";
    case CellKind::kXnor2: return "xnor2";
    case CellKind::kMux2: return "mux2";
    case CellKind::kDff: return "dff";
    case CellKind::kMemQ: return "memq";
  }
  return "?";
}

std::vector<NetId> Netlist::add_input(const std::string& name,
                                      unsigned width) {
  Bus bus;
  bus.name = name;
  for (unsigned i = 0; i < width; ++i) {
    Cell c;
    c.kind = CellKind::kInput;
    c.name = name + "[" + std::to_string(i) + "]";
    cells_.push_back(std::move(c));
    bus.nets.push_back(static_cast<NetId>(cells_.size() - 1));
  }
  inputs_.push_back(bus);
  return inputs_.back().nets;
}

void Netlist::add_output(const std::string& name, std::vector<NetId> nets) {
  for (const NetId n : nets) {
    if (n >= cells_.size()) bad(name_, "output references unknown net");
  }
  outputs_.push_back(Bus{name, std::move(nets)});
}

NetId Netlist::emit(CellKind kind, std::vector<NetId> ins) {
  Cell c;
  c.kind = kind;
  c.ins = std::move(ins);
  cells_.push_back(std::move(c));
  return static_cast<NetId>(cells_.size() - 1);
}

NetId Netlist::strash_lookup(CellKind kind, const std::vector<NetId>& ins) {
  std::uint64_t h = static_cast<std::uint64_t>(kind);
  for (const NetId n : ins) h = mix(h, n);
  auto& bucket = strash_[h];
  for (const NetId cand : bucket) {
    const Cell& c = cells_[cand];
    if (c.kind == kind && c.ins == ins) return cand;
  }
  // Not found: create and remember.
  Cell c;
  c.kind = kind;
  c.ins = ins;
  cells_.push_back(std::move(c));
  const NetId id = static_cast<NetId>(cells_.size() - 1);
  bucket.push_back(id);
  return id;
}

NetId Netlist::inv(NetId a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  if (cells_[a].kind == CellKind::kInv) return cells_[a].ins[0];
  return strash_lookup(CellKind::kInv, {a});
}

NetId Netlist::and2(NetId a, NetId b) {
  if (a > b) std::swap(a, b);  // canonical order (commutative)
  if (a == const0()) return const0();
  if (a == const1()) return b;
  if (a == b) return a;
  // a == ~b or b == ~a -> 0
  if (cells_[b].kind == CellKind::kInv && cells_[b].ins[0] == a)
    return const0();
  if (cells_[a].kind == CellKind::kInv && cells_[a].ins[0] == b)
    return const0();
  return strash_lookup(CellKind::kAnd2, {a, b});
}

NetId Netlist::or2(NetId a, NetId b) {
  if (a > b) std::swap(a, b);
  if (a == const0()) return b;
  if (a == const1()) return const1();
  if (a == b) return a;
  if (cells_[b].kind == CellKind::kInv && cells_[b].ins[0] == a)
    return const1();
  if (cells_[a].kind == CellKind::kInv && cells_[a].ins[0] == b)
    return const1();
  return strash_lookup(CellKind::kOr2, {a, b});
}

NetId Netlist::xor2(NetId a, NetId b) {
  if (a > b) std::swap(a, b);
  if (a == const0()) return b;
  if (a == const1()) return inv(b);
  if (a == b) return const0();
  if (cells_[b].kind == CellKind::kInv && cells_[b].ins[0] == a)
    return const1();
  return strash_lookup(CellKind::kXor2, {a, b});
}

NetId Netlist::mux2(NetId sel, NetId t, NetId e) {
  if (sel == const1()) return t;
  if (sel == const0()) return e;
  if (t == e) return t;
  if (t == const1() && e == const0()) return sel;
  if (t == const0() && e == const1()) return inv(sel);
  if (e == const0()) return and2(sel, t);
  if (t == const0()) return and2(inv(sel), e);
  if (t == const1()) return or2(sel, e);
  if (e == const1()) return or2(inv(sel), t);
  // Absorption: mux(s1, t, mux(s2, t, e)) == mux(s1|s2, t, e) — collapses
  // the per-state datapath selection chains behavioral synthesis emits.
  if (cells_[e].kind == CellKind::kMux2 && cells_[e].ins[1] == t)
    return mux2(or2(sel, cells_[e].ins[0]), t, cells_[e].ins[2]);
  return strash_lookup(CellKind::kMux2, {sel, t, e});
}

NetId Netlist::dff(const std::string& name, bool init) {
  Cell c;
  c.kind = CellKind::kDff;
  c.init = init;
  c.name = name;
  cells_.push_back(std::move(c));
  return static_cast<NetId>(cells_.size() - 1);
}

void Netlist::connect_dff(NetId q, NetId d) {
  if (q >= cells_.size() || cells_[q].kind != CellKind::kDff)
    bad(name_, "connect_dff on non-dff net");
  if (!cells_[q].ins.empty()) bad(name_, "dff connected twice");
  if (d >= cells_.size()) bad(name_, "dff D references unknown net");
  cells_[q].ins.push_back(d);
}

unsigned Netlist::add_memory(const std::string& name, unsigned depth,
                             unsigned width) {
  MemMacro m;
  m.name = name;
  m.depth = depth;
  m.width = width;
  mems_.push_back(std::move(m));
  return static_cast<unsigned>(mems_.size() - 1);
}

std::vector<NetId> Netlist::mem_read(unsigned mem,
                                     const std::vector<NetId>& addr) {
  const MemMacro& m = mems_.at(mem);
  std::vector<NetId> out;
  out.reserve(m.width);
  for (unsigned b = 0; b < m.width; ++b) {
    Cell c;
    c.kind = CellKind::kMemQ;
    c.ins = addr;
    c.param = mem;
    c.param2 = b;
    cells_.push_back(std::move(c));
    out.push_back(static_cast<NetId>(cells_.size() - 1));
  }
  return out;
}

void Netlist::mem_write(unsigned mem, std::vector<NetId> addr,
                        std::vector<NetId> data, NetId enable) {
  MemMacro& m = mems_.at(mem);
  if (data.size() != m.width) bad(name_, "mem_write data width");
  m.writes.push_back({std::move(addr), std::move(data), enable});
}

NetId Netlist::raw_gate(CellKind kind, std::vector<NetId> ins) {
  if (!is_logic(kind)) bad(name_, "raw_gate: not a logic cell kind");
  if (ins.size() != static_cast<std::size_t>(arity(kind)))
    bad(name_, "raw_gate: arity mismatch");
  for (const NetId in : ins) {
    if (in == kInvalidNet || in >= cells_.size())
      bad(name_, "raw_gate: unknown input net");
  }
  return strash_lookup(kind, ins);
}

NetId Netlist::mem_read_bit(unsigned mem, std::vector<NetId> addr,
                            unsigned bit) {
  const MemMacro& m = mems_.at(mem);
  if (bit >= m.width) bad(name_, "mem_read_bit: bit out of range");
  Cell c;
  c.kind = CellKind::kMemQ;
  c.ins = std::move(addr);
  c.param = mem;
  c.param2 = bit;
  cells_.push_back(std::move(c));
  return static_cast<NetId>(cells_.size() - 1);
}

void Netlist::replace_net(NetId from, NetId to) {
  if (from >= cells_.size() || to >= cells_.size())
    bad(name_, "replace_net: unknown net");
  if (from == to) return;
  for (Cell& c : cells_)
    for (NetId& in : c.ins)
      if (in == from) in = to;
  for (MemMacro& m : mems_) {
    for (auto& w : m.writes) {
      for (NetId& n : w.addr)
        if (n == from) n = to;
      for (NetId& n : w.data)
        if (n == from) n = to;
      if (w.enable == from) w.enable = to;
    }
  }
  for (Bus& bus : outputs_)
    for (NetId& n : bus.nets)
      if (n == from) n = to;
  strash_.clear();  // hashed shapes are stale after rewiring
}

void Netlist::rebind_input(const std::string& name,
                           const std::vector<NetId>& nets) {
  for (std::size_t bi = 0; bi < inputs_.size(); ++bi) {
    if (inputs_[bi].name != name) continue;
    const Bus bus = inputs_[bi];
    if (bus.nets.size() != nets.size())
      bad(name_, "rebind_input width mismatch on " + name);
    // Rewire every consumer of the old input bits.
    for (Cell& c : cells_) {
      for (NetId& in : c.ins) {
        for (std::size_t i = 0; i < bus.nets.size(); ++i) {
          if (in == bus.nets[i]) in = nets[i];
        }
      }
    }
    for (MemMacro& m : mems_) {
      for (auto& w : m.writes) {
        auto rewire = [&](NetId& n) {
          for (std::size_t i = 0; i < bus.nets.size(); ++i)
            if (n == bus.nets[i]) n = nets[i];
        };
        for (NetId& n : w.addr) rewire(n);
        for (NetId& n : w.data) rewire(n);
        rewire(w.enable);
      }
    }
    for (Bus& out : outputs_) {
      for (NetId& n : out.nets) {
        for (std::size_t i = 0; i < bus.nets.size(); ++i)
          if (n == bus.nets[i]) n = nets[i];
      }
    }
    inputs_.erase(inputs_.begin() + static_cast<std::ptrdiff_t>(bi));
    strash_.clear();  // structural identities changed
    return;
  }
  bad(name_, "rebind_input: no input named " + name);
}

std::map<std::string, std::vector<NetId>> Netlist::instantiate(
    const Netlist& ip, const std::string& instance_name,
    const std::map<std::string, std::vector<NetId>>& bindings) {
  // Map IP nets to nets of this netlist.  IP cells are copied verbatim —
  // the point of netlist-level IP integration is that the IP is *not*
  // re-synthesized.
  std::vector<NetId> remap(ip.cells_.size(), kInvalidNet);
  remap[0] = const0();
  remap[1] = const1();
  for (const Bus& bus : ip.inputs_) {
    const auto it = bindings.find(bus.name);
    if (it == bindings.end())
      bad(name_, "instantiate: unbound IP input " + bus.name);
    if (it->second.size() != bus.nets.size())
      bad(name_, "instantiate: width mismatch on IP input " + bus.name);
    for (std::size_t i = 0; i < bus.nets.size(); ++i)
      remap[bus.nets[i]] = it->second[i];
  }
  const unsigned mem_base = static_cast<unsigned>(mems_.size());
  for (const MemMacro& m : ip.mems_) {
    MemMacro copy = m;
    copy.name = instance_name + "." + m.name;
    copy.writes.clear();
    mems_.push_back(std::move(copy));
  }
  for (NetId id = 2; id < ip.cells_.size(); ++id) {
    const Cell& c = ip.cells_[id];
    if (c.kind == CellKind::kInput) continue;  // bound above
    Cell copy = c;
    if (!copy.name.empty()) copy.name = instance_name + "." + copy.name;
    if (copy.kind == CellKind::kMemQ) copy.param += mem_base;
    for (NetId& in : copy.ins) {
      if (remap[in] == kInvalidNet)
        bad(name_, "instantiate: forward net reference in IP");
      in = remap[in];
    }
    cells_.push_back(std::move(copy));
    remap[id] = static_cast<NetId>(cells_.size() - 1);
  }
  for (std::size_t mi = 0; mi < ip.mems_.size(); ++mi) {
    for (const auto& w : ip.mems_[mi].writes) {
      MemMacro::WritePort port;
      for (const NetId n : w.addr) port.addr.push_back(remap[n]);
      for (const NetId n : w.data) port.data.push_back(remap[n]);
      port.enable = remap[w.enable];
      mems_[mem_base + mi].writes.push_back(std::move(port));
    }
  }
  std::map<std::string, std::vector<NetId>> outs;
  for (const Bus& bus : ip.outputs_) {
    std::vector<NetId> nets;
    for (const NetId n : bus.nets) nets.push_back(remap[n]);
    outs[bus.name] = std::move(nets);
  }
  return outs;
}

std::map<CellKind, std::size_t> Netlist::cell_histogram() const {
  std::map<CellKind, std::size_t> h;
  for (const Cell& c : cells_) ++h[c.kind];
  return h;
}

std::size_t Netlist::dff_count() const {
  std::size_t n = 0;
  for (const Cell& c : cells_)
    if (c.kind == CellKind::kDff) ++n;
  return n;
}

std::size_t Netlist::gate_count() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) {
    switch (c.kind) {
      case CellKind::kConst0:
      case CellKind::kConst1:
      case CellKind::kInput:
      case CellKind::kDff:
      case CellKind::kMemQ:
        break;
      default:
        ++n;
    }
  }
  return n;
}

std::vector<NetId> Netlist::topo_order() const {
  std::vector<unsigned> pending(cells_.size(), 0);
  std::vector<std::vector<NetId>> users(cells_.size());
  auto is_source = [&](NetId id) {
    const CellKind k = cells_[id].kind;
    return k == CellKind::kConst0 || k == CellKind::kConst1 ||
           k == CellKind::kInput || k == CellKind::kDff;
  };
  for (NetId id = 0; id < cells_.size(); ++id) {
    if (is_source(id)) continue;
    for (const NetId in : cells_[id].ins) {
      if (is_source(in)) continue;  // sequential/primary boundary
      users[in].push_back(id);
      ++pending[id];
    }
  }
  std::vector<NetId> ready;
  std::vector<NetId> order;
  std::size_t comb_total = 0;
  for (NetId id = 0; id < cells_.size(); ++id) {
    if (is_source(id)) continue;
    ++comb_total;
    if (pending[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const NetId u : users[id])
      if (--pending[u] == 0) ready.push_back(u);
  }
  if (order.size() != comb_total) bad(name_, "combinational cycle");
  return order;
}

std::vector<std::uint32_t> Netlist::topo_levels() const {
  std::vector<std::uint32_t> level(cells_.size(), kNoLevel);
  for (const NetId id : topo_order()) {
    std::uint32_t lvl = 0;
    for (const NetId in : cells_[id].ins)
      if (level[in] != kNoLevel) lvl = std::max(lvl, level[in] + 1);
    level[id] = lvl;
  }
  return level;
}

void Netlist::mutate_cell(NetId id, CellKind new_kind) {
  if (id >= cells_.size()) bad(name_, "mutate_cell: bad net id");
  if (!is_logic(cells_[id].kind) || !is_logic(new_kind))
    bad(name_, "mutate_cell: not a logic cell");
  if (arity(cells_[id].kind) != arity(new_kind))
    bad(name_, "mutate_cell: arity mismatch");
  cells_[id].kind = new_kind;
  strash_.clear();  // hashed shapes are stale after mutation
}

std::vector<Violation> Netlist::violations() const {
  std::vector<Violation> out;
  const auto net_ok = [&](NetId id) { return id < cells_.size(); };
  for (NetId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    const char* kind = cell_kind_name(c.kind);
    const std::size_t before = out.size();
    for (std::uint32_t i = 0; i < c.ins.size(); ++i)
      if (!net_ok(c.ins[i]))
        out.push_back({Violation::Kind::kDangling, id, i,
                       std::string(kind) + " input " + std::to_string(i) +
                           " is a dangling net reference",
                       ""});
    const int want = arity(c.kind);
    if (want >= 0 && out.size() == before &&
        c.ins.size() != static_cast<std::size_t>(want))
      out.push_back({Violation::Kind::kCell, id, 0,
                     std::string(kind) +
                         (c.kind == CellKind::kDff && c.ins.empty()
                                 ? ": flip-flop D input was never connected"
                                 : ": wrong input count for this cell kind"),
                     "has " + std::to_string(c.ins.size()) +
                         " input(s), needs " + std::to_string(want)});
    if (c.kind != CellKind::kMemQ) continue;
    if (c.param >= mems_.size())
      out.push_back({Violation::Kind::kCell, id, 0,
                     "memq reads from a memory that does not exist", ""});
    else if (c.param2 >= mems_[c.param].width)
      out.push_back({Violation::Kind::kCell, id, 0,
                     "memq reads a data bit the memory does not have",
                     "bit " + std::to_string(c.param2) + " of a " +
                         std::to_string(mems_[c.param].width) +
                         "-bit memory"});
  }
  for (std::uint32_t mi = 0; mi < mems_.size(); ++mi) {
    const MemMacro& m = mems_[mi];
    for (std::uint32_t wi = 0; wi < m.writes.size(); ++wi) {
      const auto& w = m.writes[wi];
      // The note names the first fault: enable, data width, then the
      // first unconnected address or data bit.
      const auto bad_addr =
          std::find_if_not(w.addr.begin(), w.addr.end(), net_ok);
      const auto bad_data =
          std::find_if_not(w.data.begin(), w.data.end(), net_ok);
      std::string note;
      if (!net_ok(w.enable))
        note = "enable net is unconnected";
      else if (w.data.size() != m.width)
        note = "data bus width does not match the memory";
      else if (bad_addr != w.addr.end())
        note = "address bit " + std::to_string(bad_addr - w.addr.begin()) +
               " is unconnected";
      else if (bad_data != w.data.end())
        note = "data bit " + std::to_string(bad_data - w.data.begin()) +
               " is unconnected";
      if (!note.empty())
        out.push_back({Violation::Kind::kWritePort, mi, wi,
                       "write port is floating or malformed",
                       std::move(note)});
    }
  }
  for (std::uint32_t bi = 0; bi < outputs_.size(); ++bi)
    for (std::uint32_t i = 0; i < outputs_[bi].nets.size(); ++i)
      if (!net_ok(outputs_[bi].nets[i]))
        out.push_back({Violation::Kind::kOutput, bi, i,
                       "output port bit is not driven by any net", ""});
  return out;
}

void Netlist::validate() const {
  const std::vector<Violation> v = violations();
  if (!v.empty()) bad(name_, v.front().message);
  (void)topo_order();
}

std::vector<bool> Netlist::live_cells() const {
  std::vector<bool> keep(cells_.size(), false);
  std::vector<NetId> work;
  auto mark = [&](NetId n) {
    if (n < keep.size() && !keep[n]) {
      keep[n] = true;
      work.push_back(n);
    }
  };
  mark(const0());
  mark(const1());
  // Input bits are part of the interface: always kept.
  for (const Bus& bus : inputs_)
    for (const NetId n : bus.nets) mark(n);
  for (const Bus& bus : outputs_)
    for (const NetId n : bus.nets) mark(n);
  std::vector<bool> mem_used(mems_.size(), false);
  while (!work.empty()) {
    const NetId id = work.back();
    work.pop_back();
    const Cell& c = cells_[id];
    for (const NetId in : c.ins) mark(in);
    if (c.kind == CellKind::kMemQ && c.param < mems_.size() &&
        !mem_used[c.param]) {
      mem_used[c.param] = true;
      for (const auto& w : mems_[c.param].writes) {
        for (const NetId n : w.addr) mark(n);
        for (const NetId n : w.data) mark(n);
        mark(w.enable);
      }
    }
  }
  return keep;
}

std::size_t Netlist::sweep() {
  validate();
  const std::vector<bool> keep = live_cells();
  std::vector<bool> mem_used(mems_.size(), false);
  for (NetId id = 0; id < cells_.size(); ++id)
    if (keep[id] && cells_[id].kind == CellKind::kMemQ)
      mem_used[cells_[id].param] = true;
  // Compact.
  std::vector<NetId> remap(cells_.size(), kInvalidNet);
  std::vector<Cell> kept;
  kept.reserve(cells_.size());
  for (NetId id = 0; id < cells_.size(); ++id) {
    if (keep[id]) {
      remap[id] = static_cast<NetId>(kept.size());
      kept.push_back(std::move(cells_[id]));
    }
  }
  const std::size_t removed = cells_.size() - kept.size();
  for (Cell& c : kept)
    for (NetId& in : c.ins) in = remap[in];
  cells_ = std::move(kept);
  for (Bus& bus : inputs_)
    for (NetId& n : bus.nets) n = remap[n];
  for (Bus& bus : outputs_)
    for (NetId& n : bus.nets) n = remap[n];
  for (std::size_t mi = 0; mi < mems_.size(); ++mi) {
    if (!mem_used[mi]) {
      mems_[mi].writes.clear();  // dead memory keeps no logic alive
      continue;
    }
    for (auto& w : mems_[mi].writes) {
      for (NetId& n : w.addr) n = remap[n];
      for (NetId& n : w.data) n = remap[n];
      w.enable = remap[w.enable];
    }
  }
  strash_.clear();  // ids changed; further strash would be wrong
  return removed;
}

std::vector<std::uint32_t> fanout_counts(const Netlist& nl) {
  std::vector<std::uint32_t> fanout(nl.cells().size(), 0);
  for (const Cell& c : nl.cells())
    for (const NetId in : c.ins) ++fanout[in];
  for (const auto& m : nl.memories()) {
    for (const auto& w : m.writes) {
      for (const NetId n : w.addr) ++fanout[n];
      for (const NetId n : w.data) ++fanout[n];
      ++fanout[w.enable];
    }
  }
  for (const auto& bus : nl.outputs())
    for (const NetId n : bus.nets) ++fanout[n];
  return fanout;
}

std::string Netlist::dump() const {
  std::ostringstream os;
  os << "netlist " << name_ << "\n";
  for (NetId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    os << "  n" << id << " = " << cell_kind_name(c.kind);
    for (const NetId in : c.ins) os << " n" << in;
    if (!c.name.empty()) os << " \"" << c.name << "\"";
    os << "\n";
  }
  return os.str();
}

}  // namespace osss::gate
