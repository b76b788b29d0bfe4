// gate_rules.cpp — gate-netlist lint pack implementation.

#include "lint/gate_rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/cycle_path.hpp"

namespace osss::lint {
namespace {

using gate::Cell;
using gate::CellKind;
using gate::MemMacro;
using gate::NetId;
using gate::Netlist;

class NetlistLinter {
 public:
  NetlistLinter(const Netlist& nl, const Options& opt) : nl_(nl), opt_(opt) {}

  Report run() {
    const std::vector<gate::Violation> violations = nl_.violations();
    structural(violations);
    // The rules below follow every cell input, write port and output bit.
    const bool refs_ok = std::all_of(
        violations.begin(), violations.end(),
        [](const gate::Violation& v) { return v.kind == Kind::kCell; });
    if (!refs_ok) return std::move(report_);
    cycles();
    dead_cells();
    fanout();
    return std::move(report_);
  }

 private:
  using Kind = gate::Violation::Kind;

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

  // --- GATE-003: Netlist::violations(); GATE-002 --------------------------
  // A memory's GATE-002 comes just before its write ports' violations.
  void structural(const std::vector<gate::Violation>& violations) {
    const auto& mems = nl_.memories();
    std::size_t next = 0;  // the first memory whose GATE-002 is still due
    for (const gate::Violation& v : violations) {
      std::string object;
      std::int64_t index = v.index;
      if (v.kind == Kind::kWritePort) {
        for (; next <= v.index; ++next) multi_write(next);
        object = "memory '" + mems[v.index].name + "' write port " +
                 std::to_string(v.sub);
      } else if (v.kind == Kind::kOutput) {
        for (; next < mems.size(); ++next) multi_write(next);
        object = "output '" + nl_.outputs()[v.index].name + "' bit " +
                 std::to_string(v.sub);
        index = -1;
      } else {
        object = label(v.index);
      }
      emit("GATE-003", Severity::kError, std::move(object), index, v.message,
           v.note);
    }
    for (; next < mems.size(); ++next) multi_write(next);
  }

  void multi_write(std::size_t mi) {
    const MemMacro& m = nl_.memories()[mi];
    if (m.writes.size() < 2) return;
    emit("GATE-002", Severity::kWarning, "memory '" + m.name + "'",
         static_cast<std::int64_t>(mi),
         std::to_string(m.writes.size()) +
             " write ports drive one memory; simultaneous writes to the "
             "same word collide");
  }

  // --- GATE-001: combinational loops ---------------------------------------

  void cycles() {
    const std::vector<NetId> loop =
        detail::cycle_path(nl_.cells(), [](const Cell& c) {
          return c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1 ||
                 c.kind == CellKind::kInput || c.kind == CellKind::kDff;
        });
    if (loop.empty()) return;
    std::string note;
    for (const NetId id : loop) note += label(id) + " -> ";
    note += label(loop.front());
    emit("GATE-001", Severity::kError, label(loop.front()),
         static_cast<std::int64_t>(loop.front()),
         "combinational loop through " + std::to_string(loop.size()) +
             " cell(s)",
         note);
  }

  // --- GATE-004: dead cells (the cells Netlist::sweep() removes) ----------

  void dead_cells() {
    const std::vector<bool> keep = nl_.live_cells();
    for (NetId id = 0; id < keep.size(); ++id) {
      if (keep[id]) continue;
      emit("GATE-004", Severity::kWarning, label(id),
           static_cast<std::int64_t>(id),
           std::string(cell_kind_name(nl_.cells()[id].kind)) +
               " drives no output, register or memory; sweep() removes it");
    }
  }

  // --- GATE-005: fanout ----------------------------------------------------

  void fanout() {
    const std::vector<std::uint32_t> fo = gate::fanout_counts(nl_);
    std::map<unsigned, std::size_t> hist;
    for (const std::uint32_t f : fo) ++hist[f];
    const auto max_it = std::max_element(fo.begin(), fo.end());
    const auto max_net = static_cast<NetId>(max_it - fo.begin());
    std::string note;
    for (const auto& [f, count] : hist) {
      if (!note.empty()) note += ", ";
      note += "fanout " + std::to_string(f) + ": " + std::to_string(count) +
              " net(s)";
    }
    emit("GATE-005", Severity::kInfo, "netlist", -1,
         "fanout histogram (max " + std::to_string(*max_it) + " at " +
             label(max_net) + ")",
         note);
    if (opt_.fanout_warn_threshold > 0) {
      for (NetId id = 0; id < fo.size(); ++id) {
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
};

}  // namespace

Report lint_netlist(const Netlist& nl, const Options& opt) {
  return NetlistLinter(nl, opt).run();
}

}  // namespace osss::lint
