#include "opt/rebuild.hpp"

#include <algorithm>
#include <stdexcept>

namespace osss::opt {

std::vector<NetId> level_order(const Netlist& src) {
  const std::vector<std::uint32_t> levels = src.topo_levels();
  std::vector<NetId> order;
  order.reserve(src.cells().size());
  for (NetId id = 0; id < src.cells().size(); ++id)
    if (levels[id] != gate::kNoLevel) order.push_back(id);
  std::stable_sort(order.begin(), order.end(), [&](NetId a, NetId b) {
    if (levels[a] != levels[b]) return levels[a] < levels[b];
    return a < b;
  });
  return order;
}

namespace {

/// Mapped kinds stay mapped (decomposing them through the factories would
/// undo the technology mapper), but the trivial folds the factories would
/// have applied are done by hand first.
NetId emit_mapped(Netlist& dst, CellKind kind, NetId a, NetId b) {
  const NetId lo = dst.const0();
  const NetId hi = dst.const1();
  switch (kind) {
    case CellKind::kNand2:
      if (a == lo || b == lo) return hi;
      if (a == hi) return dst.inv(b);
      if (b == hi || a == b) return dst.inv(a);
      break;
    case CellKind::kNor2:
      if (a == hi || b == hi) return lo;
      if (a == lo) return dst.inv(b);
      if (b == lo || a == b) return dst.inv(a);
      break;
    case CellKind::kXnor2:
      if (a == b) return hi;
      if (a == lo) return dst.inv(b);
      if (b == lo) return dst.inv(a);
      if (a == hi) return b;
      if (b == hi) return a;
      break;
    default:
      break;
  }
  return dst.raw_gate(kind, {a, b});
}

}  // namespace

NetId emit_default(Netlist& dst, const Netlist& src, NetId src_id,
                   const std::vector<NetId>& ins) {
  const CellKind kind = src.cells()[src_id].kind;
  switch (kind) {
    case CellKind::kBuf: return dst.buf(ins[0]);
    case CellKind::kInv: return dst.inv(ins[0]);
    case CellKind::kAnd2: return dst.and2(ins[0], ins[1]);
    case CellKind::kOr2: return dst.or2(ins[0], ins[1]);
    case CellKind::kXor2: return dst.xor2(ins[0], ins[1]);
    case CellKind::kNand2:
    case CellKind::kNor2:
    case CellKind::kXnor2: return emit_mapped(dst, kind, ins[0], ins[1]);
    case CellKind::kMux2: return dst.mux2(ins[0], ins[1], ins[2]);
    case CellKind::kMemQ: {
      const Cell& c = src.cells()[src_id];
      return dst.mem_read_bit(c.param, ins, c.param2);
    }
    default:
      throw std::logic_error("opt::rebuild: source cell is not combinational");
  }
}

Netlist rebuild(const Netlist& src, const RebuildHooks& hooks) {
  const auto find = [&](NetId id) {
    return hooks.replace ? hooks.replace(id) : id;
  };

  Netlist dst(src.name());
  std::vector<NetId> map(src.cells().size(), gate::kInvalidNet);
  map[0] = dst.const0();
  map[1] = dst.const1();

  for (const auto& bus : src.inputs()) {
    const std::vector<NetId> nets =
        dst.add_input(bus.name, static_cast<unsigned>(bus.nets.size()));
    for (std::size_t i = 0; i < nets.size(); ++i) map[bus.nets[i]] = nets[i];
  }
  for (const auto& m : src.memories())
    dst.add_memory(m.name, m.depth, m.width);

  // DFF Q placeholders: class representatives only; other members alias.
  for (NetId id = 0; id < src.cells().size(); ++id) {
    const Cell& c = src.cells()[id];
    if (c.kind != CellKind::kDff || find(id) != id) continue;
    map[id] = dst.dff(c.name, c.init);
  }
  for (NetId id = 0; id < src.cells().size(); ++id) {
    if (src.cells()[id].kind != CellKind::kDff) continue;
    const NetId rep = find(id);
    if (rep != id) map[id] = map[rep];
  }

  // Combinational cells, representatives first by construction of the
  // (level, id) order (a representative never has a higher level, nor a
  // higher id at equal level, than any member of its class).
  const std::function<NetId(NetId)> mapped = [&](NetId id) {
    const NetId m = map[find(id)];
    if (m == gate::kInvalidNet)
      throw std::logic_error("opt::rebuild: mapped() on unemitted net");
    return m;
  };
  std::vector<NetId> ins;
  for (const NetId id : level_order(src)) {
    const NetId rep = find(id);
    if (rep != id) {
      if (map[rep] == gate::kInvalidNet)
        throw std::logic_error(
            "opt::rebuild: class representative not yet emitted");
      map[id] = map[rep];
      continue;
    }
    const Cell& c = src.cells()[id];
    ins.clear();
    for (const NetId in : c.ins) {
      const NetId m = map[find(in)];
      if (m == gate::kInvalidNet)
        throw std::logic_error("opt::rebuild: input emitted out of order");
      ins.push_back(m);
    }
    map[id] = hooks.emit ? hooks.emit(dst, id, ins, mapped)
                         : emit_default(dst, src, id, ins);
  }

  for (NetId id = 0; id < src.cells().size(); ++id) {
    const Cell& c = src.cells()[id];
    if (c.kind != CellKind::kDff || find(id) != id) continue;
    dst.connect_dff(map[id], map[find(c.ins.at(0))]);
  }
  for (std::size_t mi = 0; mi < src.memories().size(); ++mi) {
    for (const auto& w : src.memories()[mi].writes) {
      std::vector<NetId> addr, data;
      for (const NetId n : w.addr) addr.push_back(map[find(n)]);
      for (const NetId n : w.data) data.push_back(map[find(n)]);
      dst.mem_write(static_cast<unsigned>(mi), std::move(addr),
                    std::move(data), map[find(w.enable)]);
    }
  }
  for (const auto& bus : src.outputs()) {
    std::vector<NetId> nets;
    for (const NetId n : bus.nets) nets.push_back(map[find(n)]);
    dst.add_output(bus.name, std::move(nets));
  }

  dst.sweep();  // validates
  return dst;
}

}  // namespace osss::opt
