#include "lint/diag.hpp"

#include <algorithm>
#include <sstream>

namespace osss::lint {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << severity_name(severity) << "[" << rule << "] " << source;
  if (!object.empty()) os << "." << object;
  os << ": " << message;
  if (!note.empty()) os << " (" << note << ")";
  return os.str();
}

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      // --- RTL-IR pack (lint/rtl_rules.cpp) ------------------------------
      {"RTL-001", "rtl", Severity::kError, "combinational cycle",
       "A path of combinational nodes feeds back into itself without "
       "passing through a register.  The simulator cannot order such a "
       "graph and real hardware would oscillate or latch.  The checker "
       "runs a DFS over the combinational edges (registers break the "
       "graph) and reports one concrete cycle path."},
      {"RTL-002", "rtl", Severity::kError, "width or shape mismatch",
       "A node violates the IR's structural contract: operand widths "
       "disagree, a slice reads out of range, a register, memory port or "
       "module port is unconnected, or a concat's parts do not sum to its "
       "width.  Reports rtl::Module::violations(), whose first entry "
       "Module::validate() throws, so every problem shows at once."},
      {"RTL-003", "rtl", Severity::kWarning,
       "dead node (never observable; agrees with the tape pruner)",
       "The node is unreachable from every output, register and memory "
       "write port, so no execution can observe it.  The set is exactly "
       "what the tape compiler prunes; dead logic usually indicates an "
       "unfinished edit or a lost connection."},
      {"RTL-004", "rtl", Severity::kWarning, "register without reset value",
       "The register declares no reset value, so simulation and synthesis "
       "may disagree about its power-on contents.  Every register in the "
       "synthesizable subset must come up in a defined state."},
      {"RTL-005", "rtl", Severity::kWarning, "output folds to a constant",
       "Constant folding proves the output port carries the same value in "
       "every cycle.  Either the port is redundant or logic that should "
       "vary was wired to a constant by mistake."},
      {"RTL-006", "rtl", Severity::kWarning, "unreachable FSM state",
       "For a register whose next-state cone is a mux tree over constant "
       "leaves (the FSM idiom the synthesizer emits), reachability "
       "exploration from the reset state proves some declared states can "
       "never be entered.  Dead states cost encoding bits and usually "
       "flag missing transitions."},
      {"RTL-007", "rtl", Severity::kInfo, "dead FSM transition",
       "An FSM transition arm exists whose guard can never be true in any "
       "state reachable from reset, so the transition never fires.  The "
       "guard is abstractly evaluated with the state register pinned to "
       "each reachable value in turn."},
      {"RTL-008", "rtl", Severity::kWarning,
       "stuck register (can never change after reset)",
       "Structural evidence pins the register to its reset value forever: "
       "its enable folds to constant 0, its D input feeds back its own Q, "
       "or its D input folds to the reset constant.  A stuck register is "
       "wasted state; see RTL-014 for the sharper dataflow-based form."},
      {"RTL-009", "rtl", Severity::kInfo,
       "constant over-shift truncates to zero",
       "A shift by a constant amount greater than or equal to the operand "
       "width always yields zero.  Legal, but almost always a width "
       "confusion at the call site."},
      {"RTL-010", "rtl", Severity::kWarning, "unreachable mux arm",
       "Abstract interpretation (known bits + value intervals over every "
       "reachable cycle) proves the mux select constant even though plain "
       "constant folding cannot, so one arm is dead logic.  Typically the "
       "guard compares a register against a value the register provably "
       "never reaches."},
      {"RTL-011", "rtl", Severity::kWarning,
       "comparison always constant",
       "A comparison's result is the same in every reachable cycle: the "
       "operand intervals or known bits proven by dataflow analysis "
       "decide it, even though neither operand folds to a constant "
       "structurally.  The surrounding control logic is degenerate."},
      {"RTL-012", "rtl", Severity::kWarning,
       "truncation drops set bits",
       "A low slice narrows a value whose dropped high bits are proven "
       "always 1 by dataflow analysis, so information is lost in every "
       "cycle — typically a result width miscalculated for the operands "
       "feeding it."},
      {"RTL-013", "rtl", Severity::kWarning,
       "memory write proven out of range",
       "Interval analysis proves the write port's address is at least the "
       "memory depth in every reachable cycle, so the write never lands "
       "(the simulator drops out-of-range writes).  The port is dead "
       "weight and the address computation is almost certainly wrong."},
      {"RTL-014", "rtl", Severity::kInfo,
       "register bits never toggle",
       "Dataflow analysis proves individual register bits hold their "
       "reset value in every reachable cycle — a sharper, per-bit form "
       "of RTL-008 that also catches registers stuck through feedback "
       "loops and saturating guards.  Constant bits are optimization "
       "fuel (the ODC-aware satsweep consumes the same facts) but often "
       "flag an over-wide declaration."},
      // --- gate-netlist pack (lint/gate_rules.cpp) -----------------------
      {"GATE-001", "gate", Severity::kError,
       "combinational loop through cells",
       "A cycle of gate cells closes without passing through a flip-flop. "
       "Netlist leveling fails and hardware would oscillate; the checker "
       "reports one concrete loop."},
      {"GATE-002", "gate", Severity::kWarning,
       "multiple write ports may drive one memory word (write-write)",
       "Two write ports of the same memory are not provably "
       "address-disjoint or enable-exclusive, so one cycle may commit two "
       "writes to one word and the result depends on port order."},
      {"GATE-003", "gate", Severity::kError, "floating cell input",
       "A cell input references no driver.  The value is undefined in "
       "simulation and an open input in hardware."},
      {"GATE-004", "gate", Severity::kWarning,
       "dead cell (sweep would remove it)",
       "The cell drives nothing observable (no path to an output, "
       "flip-flop or memory write): Netlist::live_cells(), the mark sweep() "
       "erases by, leaves it unmarked.  Its presence after optimization "
       "indicates a pass forgot to clean up."},
      {"GATE-005", "gate", Severity::kInfo,
       "fanout histogram / high-fanout net",
       "Reports the net fanout distribution, and warns about nets whose "
       "fanout reaches the configured threshold — buffering candidates "
       "on the way to timing closure."},
      // --- optimization pipeline (src/opt, reported via osss-lint --opt) -
      {"OPT-001", "opt", Severity::kInfo,
       "optimization pass statistics (area/depth/cell deltas)",
       "One record per optimization pass run: cells/area/depth before and "
       "after, changes applied, and the merge counters exported by the "
       "SAT sweep.  Informational plumbing for the area experiments."},
      {"OPT-002", "opt", Severity::kWarning,
       "optimization pass regressed area or logic depth",
       "A pass made the netlist strictly worse on the reported metric.  "
       "Every pass is differentially verified for equivalence, so this "
       "is a quality regression, not a correctness one."},
      // --- kernel race detector (sysc/kernel.cpp) ------------------------
      {"RACE-001", "kernel", Severity::kError,
       "same-delta write-write conflict on a signal",
       "Two processes wrote one signal in the same delta cycle with "
       "different values; the committed value depends on scheduler order. "
       "Detected dynamically by the kernel's race instrumentation."},
      {"RACE-002", "kernel", Severity::kWarning,
       "signal driven by multiple processes",
       "More than one process wrote the signal over the run.  Legal under "
       "the kernel's semantics but fragile: refactorings that change "
       "process scheduling can change behavior."},
      {"RACE-003", "kernel", Severity::kInfo,
       "read of a signal written earlier in the same delta",
       "A process read a signal that was already written in the current "
       "delta and saw the old value.  Usually intended (that is what "
       "delta cycles are for), occasionally a misordered sensitivity."},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const RuleInfo& r : rule_registry())
    if (id == r.id) return &r;
  return nullptr;
}

void Report::add(Diagnostic d) { diags_.push_back(std::move(d)); }

void Report::merge(const Report& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

std::vector<Diagnostic> Report::by_rule(const std::string& rule) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags_)
    if (d.rule == rule) out.push_back(d);
  return out;
}

bool Report::has(const std::string& rule) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::string Report::text() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) os << d.format() << "\n";
  os << diags_.size() << " diagnostic" << (diags_.size() == 1 ? "" : "s")
     << " (" << error_count() << " errors, " << warning_count()
     << " warnings, " << count(Severity::kInfo) << " info)\n";
  return os.str();
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    if (i != 0) os << ",";
    os << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
       << severity_name(d.severity) << "\",\"source\":\""
       << json_escape(d.source) << "\",\"object\":\"" << json_escape(d.object)
       << "\",\"index\":" << d.index << ",\"message\":\""
       << json_escape(d.message) << "\"";
    if (!d.note.empty()) os << ",\"note\":\"" << json_escape(d.note) << "\"";
    os << "}";
  }
  os << "],\"errors\":" << error_count() << ",\"warnings\":" << warning_count()
     << ",\"info\":" << count(Severity::kInfo) << "}";
  return os.str();
}

namespace {

/// SARIF severity levels: kInfo maps to "note" (SARIF has no "info").
const char* sarif_level(Severity s) {
  switch (s) {
    case Severity::kInfo: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string to_sarif(const Report& report) {
  // Rules referenced by at least one result, in registry (= stable ID)
  // order, so ruleIndex values are reproducible run to run.
  std::vector<const RuleInfo*> rules;
  std::map<std::string, std::size_t> rule_index;
  for (const RuleInfo& r : rule_registry()) {
    if (!report.has(r.id)) continue;
    rule_index[r.id] = rules.size();
    rules.push_back(&r);
  }

  std::ostringstream os;
  os << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
     << "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
     << "\"name\":\"osss-lint\",\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleInfo& r = *rules[i];
    if (i != 0) os << ",";
    os << "{\"id\":\"" << json_escape(r.id) << "\",\"shortDescription\":{"
       << "\"text\":\"" << json_escape(r.title) << "\"},"
       << "\"fullDescription\":{\"text\":\"" << json_escape(r.description)
       << "\"},\"defaultConfiguration\":{\"level\":\""
       << sarif_level(r.default_severity) << "\"},\"properties\":{"
       << "\"pack\":\"" << json_escape(r.pack) << "\"}}";
  }
  os << "]}},\"results\":[";
  for (std::size_t i = 0; i < report.diags().size(); ++i) {
    const Diagnostic& d = report.diags()[i];
    if (i != 0) os << ",";
    os << "{\"ruleId\":\"" << json_escape(d.rule) << "\"";
    if (const auto it = rule_index.find(d.rule); it != rule_index.end())
      os << ",\"ruleIndex\":" << it->second;
    os << ",\"level\":\"" << sarif_level(d.severity) << "\","
       << "\"message\":{\"text\":\"" << json_escape(d.message) << "\"},"
       << "\"locations\":[{\"logicalLocations\":[{\"fullyQualifiedName\":\""
       << json_escape(d.object.empty() ? d.source
                                       : d.source + "." + d.object)
       << "\"}]}],\"properties\":{\"index\":" << d.index;
    if (!d.note.empty()) os << ",\"note\":\"" << json_escape(d.note) << "\"";
    os << "}}";
  }
  os << "]}]}";
  return os.str();
}

std::string rules_markdown() {
  std::ostringstream os;
  os << "# Lint rules\n\n"
     << "Reference for every rule the analyzer subsystem implements, in\n"
     << "stable ID order.  Generated from the rule registry\n"
     << "(`src/lint/diag.cpp`) by `osss-lint --rules-doc`; do not edit by\n"
     << "hand — a test keeps this file and the registry in sync.\n"
     << "`osss-lint --explain <RULE-ID>` prints the same text.\n";
  std::string pack;
  for (const RuleInfo& r : rule_registry()) {
    if (pack != r.pack) {
      pack = r.pack;
      os << "\n## `" << pack << "` pack\n";
    }
    os << "\n### " << r.id << " — " << r.title << "\n\n"
       << "*Default severity: " << severity_name(r.default_severity)
       << ".*\n\n" << r.description << "\n";
  }
  return os.str();
}

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when the
/// bytes there are not valid UTF-8 (truncated sequence, bad continuation,
/// overlong encoding, surrogate, or above U+10FFFF).
std::size_t utf8_sequence_length(const std::string& s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char b0 = byte(i);
  std::size_t len = 0;
  std::uint32_t cp = 0;
  if (b0 < 0x80) return 1;
  if ((b0 & 0xe0) == 0xc0) { len = 2; cp = b0 & 0x1f; }
  else if ((b0 & 0xf0) == 0xe0) { len = 3; cp = b0 & 0x0f; }
  else if ((b0 & 0xf8) == 0xf0) { len = 4; cp = b0 & 0x07; }
  else return 0;  // continuation or 0xf8.. lead byte
  if (i + len > s.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    if ((byte(i + k) & 0xc0) != 0x80) return 0;
    cp = (cp << 6) | (byte(i + k) & 0x3f);
  }
  static const std::uint32_t kMinByLen[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMinByLen[len]) return 0;                 // overlong
  if (cp >= 0xd800 && cp <= 0xdfff) return 0;        // surrogate
  if (cp > 0x10ffff) return 0;                       // beyond Unicode
  return len;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[(u >> 4) & 0xf];
      out += hex[u & 0xf];
      ++i;
    } else if (u < 0x80) {
      out += c;
      ++i;
    } else if (const std::size_t len = utf8_sequence_length(s, i)) {
      // Well-formed multi-byte sequence: pass through verbatim.
      out.append(s, i, len);
      i += len;
    } else {
      // Invalid byte: substitute U+FFFD so the emitted JSON stays valid
      // UTF-8 no matter what bytes leak into a diagnostic name.
      out += "\xef\xbf\xbd";
      ++i;
    }
  }
  return out;
}

}  // namespace osss::lint
