// gate_rules.cpp — gate-netlist lint pack implementation.

#include "lint/gate_rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace osss::lint {
namespace {

using gate::Cell;
using gate::CellKind;
using gate::kInvalidNet;
using gate::MemMacro;
using gate::NetId;
using gate::Netlist;

class NetlistLinter {
 public:
  NetlistLinter(const Netlist& nl, const Options& opt) : nl_(nl), opt_(opt) {}

  Report run() {
    structural();
    if (!refs_ok_) return std::move(report_);  // indices unusable beyond here
    cycles();
    dead_cells();
    fanout();
    return std::move(report_);
  }

 private:
  void emit(const char* rule, Severity sev, std::string object,
            std::int64_t index, std::string message, std::string note = {}) {
    if (opt_.suppressed(rule)) return;
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.source = nl_.name();
    d.object = std::move(object);
    d.index = index;
    d.message = std::move(message);
    d.note = std::move(note);
    report_.add(std::move(d));
  }

  std::string label(NetId id) const {
    const Cell& c = nl_.cells()[id];
    std::string s = std::string("n").append(std::to_string(id));
    if (!c.name.empty()) s += " '" + c.name + "'";
    return s;
  }

  bool is_source(NetId id) const {
    const CellKind k = nl_.cells()[id].kind;
    return k == CellKind::kConst0 || k == CellKind::kConst1 ||
           k == CellKind::kInput || k == CellKind::kDff;
  }

  bool net_ok(NetId id) const { return id < nl_.cells().size(); }

  // --- GATE-002 / GATE-003: port and reference sanity ----------------------

  void structural() {
    const auto& cells = nl_.cells();
    for (NetId id = 0; id < cells.size(); ++id) {
      const Cell& c = cells[id];
      bool dangling = false;
      for (std::size_t i = 0; i < c.ins.size(); ++i) {
        if (!net_ok(c.ins[i])) {
          dangling = true;
          refs_ok_ = false;
          emit("GATE-003", Severity::kError, label(id),
               static_cast<std::int64_t>(id),
               std::string(cell_kind_name(c.kind)) + " input " +
                   std::to_string(i) + " is a dangling net reference");
        }
      }
      const int want = gate::arity(c.kind);
      if (want >= 0 && !dangling &&
          c.ins.size() != static_cast<std::size_t>(want)) {
        const char* what =
            c.kind == CellKind::kDff && c.ins.empty()
                ? "flip-flop D input was never connected"
                : "wrong input count for this cell kind";
        emit("GATE-003", Severity::kError, label(id),
             static_cast<std::int64_t>(id),
             std::string(cell_kind_name(c.kind)) + ": " + what,
             "has " + std::to_string(c.ins.size()) + " input(s), needs " +
                 std::to_string(want));
      }
      if (c.kind == CellKind::kMemQ && c.param >= nl_.memories().size()) {
        emit("GATE-003", Severity::kError, label(id),
             static_cast<std::int64_t>(id),
             "memq reads from a memory that does not exist");
      }
    }
    const auto& mems = nl_.memories();
    for (std::size_t mi = 0; mi < mems.size(); ++mi) {
      const MemMacro& m = mems[mi];
      if (m.writes.size() > 1) {
        emit("GATE-002", Severity::kWarning, "memory '" + m.name + "'",
             static_cast<std::int64_t>(mi),
             std::to_string(m.writes.size()) +
                 " write ports drive one memory; simultaneous writes to the "
                 "same word collide");
      }
      for (std::size_t wi = 0; wi < m.writes.size(); ++wi) {
        const auto& w = m.writes[wi];
        bool bad = !net_ok(w.enable) || w.data.size() != m.width;
        for (const NetId net : w.addr)
          if (!net_ok(net)) bad = true;
        for (const NetId net : w.data)
          if (!net_ok(net)) bad = true;
        if (bad) {
          refs_ok_ = false;
          emit("GATE-003", Severity::kError,
               "memory '" + m.name + "' write port " + std::to_string(wi),
               static_cast<std::int64_t>(mi),
               "write port is floating or malformed",
               !net_ok(w.enable) ? "enable net is unconnected"
                                 : "data bus width does not match the memory");
        }
      }
    }
    for (const auto& bus : nl_.outputs()) {
      for (std::size_t i = 0; i < bus.nets.size(); ++i) {
        if (!net_ok(bus.nets[i])) {
          refs_ok_ = false;
          emit("GATE-003", Severity::kError,
               "output '" + bus.name + "' bit " + std::to_string(i), -1,
               "output port bit is not driven by any net");
        }
      }
    }
  }

  // --- GATE-001: combinational loops ---------------------------------------

  void cycles() {
    const auto& cells = nl_.cells();
    const NetId n = static_cast<NetId>(cells.size());
    std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 on stack, 2 done
    parent_.assign(n, kInvalidNet);
    struct Frame {
      NetId id;
      std::size_t next = 0;
    };
    for (NetId root = 0; root < n; ++root) {
      if (color[root] != 0 || is_source(root)) continue;
      std::vector<Frame> stack{{root, 0}};
      color[root] = 1;
      while (!stack.empty()) {
        Frame& f = stack.back();
        const Cell& c = cells[f.id];
        if (f.next >= c.ins.size()) {
          color[f.id] = 2;
          stack.pop_back();
          continue;
        }
        const NetId in = c.ins[f.next++];
        if (is_source(in)) continue;  // sequential/primary boundary
        if (color[in] == 1) {
          report_cycle(in, f.id);
          return;  // one loop report is enough: the netlist is broken
        }
        if (color[in] == 0) {
          color[in] = 1;
          parent_[in] = f.id;
          stack.push_back({in, 0});
        }
      }
    }
  }

  void report_cycle(NetId head, NetId tail) {
    // tail is on the DFS stack with head as an ancestor; walking parents
    // from tail reconstructs the loop head -> ... -> tail -> head.
    std::vector<NetId> path;
    for (NetId cur = tail; cur != head && cur != kInvalidNet;
         cur = parent_[cur])
      path.push_back(cur);
    std::reverse(path.begin(), path.end());
    std::string note = label(head);
    for (const NetId id : path) note += " -> " + label(id);
    note += " -> " + label(head);
    emit("GATE-001", Severity::kError, label(head),
         static_cast<std::int64_t>(head),
         "combinational loop through " + std::to_string(path.size() + 1) +
             " cell(s)",
         note);
  }

  // --- GATE-004: dead cells (mirror of Netlist::sweep's marking) -----------

  void dead_cells() {
    const auto& cells = nl_.cells();
    std::vector<bool> keep(cells.size(), false);
    std::vector<NetId> work;
    auto mark = [&](NetId id) {
      if (!keep[id]) {
        keep[id] = true;
        work.push_back(id);
      }
    };
    mark(nl_.const0());
    mark(nl_.const1());
    for (const auto& bus : nl_.outputs())
      for (const NetId net : bus.nets) mark(net);
    for (const auto& bus : nl_.inputs())
      for (const NetId net : bus.nets)
        if (net_ok(net)) keep[net] = true;  // interface: kept, not traversed
    std::vector<bool> mem_used(nl_.memories().size(), false);
    while (!work.empty()) {
      const NetId id = work.back();
      work.pop_back();
      const Cell& c = cells[id];
      for (const NetId in : c.ins) mark(in);
      if (c.kind == CellKind::kMemQ && c.param < mem_used.size() &&
          !mem_used[c.param]) {
        mem_used[c.param] = true;
        for (const auto& w : nl_.memories()[c.param].writes) {
          for (const NetId net : w.addr) mark(net);
          for (const NetId net : w.data) mark(net);
          if (net_ok(w.enable)) mark(w.enable);
        }
      }
    }
    for (NetId id = 0; id < cells.size(); ++id) {
      if (keep[id]) continue;
      emit("GATE-004", Severity::kWarning, label(id),
           static_cast<std::int64_t>(id),
           std::string(cell_kind_name(cells[id].kind)) +
               " drives no output, register or memory; sweep() removes it");
    }
  }

  // --- GATE-005: fanout ----------------------------------------------------

  void fanout() {
    const auto& cells = nl_.cells();
    std::vector<unsigned> fo(cells.size(), 0);
    for (const Cell& c : cells)
      for (const NetId in : c.ins) ++fo[in];
    for (const MemMacro& m : nl_.memories()) {
      for (const auto& w : m.writes) {
        for (const NetId net : w.addr) ++fo[net];
        for (const NetId net : w.data) ++fo[net];
        if (net_ok(w.enable)) ++fo[w.enable];
      }
    }
    for (const auto& bus : nl_.outputs())
      for (const NetId net : bus.nets) ++fo[net];

    std::map<unsigned, std::size_t> hist;
    unsigned max_fo = 0;
    NetId max_net = 0;
    for (NetId id = 0; id < cells.size(); ++id) {
      ++hist[fo[id]];
      if (fo[id] > max_fo) {
        max_fo = fo[id];
        max_net = id;
      }
    }
    std::string note;
    for (const auto& [f, count] : hist) {
      if (!note.empty()) note += ", ";
      note += "fanout " + std::to_string(f) + ": " + std::to_string(count) +
              " net(s)";
    }
    emit("GATE-005", Severity::kInfo, "netlist", -1,
         "fanout histogram (max " + std::to_string(max_fo) + " at " +
             label(max_net) + ")",
         note);
    if (opt_.fanout_warn_threshold > 0) {
      for (NetId id = 0; id < cells.size(); ++id) {
        if (fo[id] >= opt_.fanout_warn_threshold) {
          emit("GATE-005", Severity::kWarning, label(id),
               static_cast<std::int64_t>(id),
               "net fans out to " + std::to_string(fo[id]) +
                   " loads (threshold " +
                   std::to_string(opt_.fanout_warn_threshold) + ")");
        }
      }
    }
  }

  const Netlist& nl_;
  const Options& opt_;
  Report report_;
  bool refs_ok_ = true;  ///< false once any net index is out of range
  std::vector<NetId> parent_;  ///< DFS tree for loop-path reconstruction
};

}  // namespace

Report lint_netlist(const Netlist& nl, const Options& opt) {
  return NetlistLinter(nl, opt).run();
}

}  // namespace osss::lint
