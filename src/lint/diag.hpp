// diag.hpp — diagnostic framework shared by every analyzer in the repo.
//
// The paper's OSSS flow starts with an *analyzer* that statically checks the
// object-oriented sources against the synthesizable subset before synthesis
// runs (its Fig. 6 front end).  This header is that stage's reporting
// backbone for the reproduction: a stable-rule-ID diagnostic record, a rule
// registry describing every check the repo implements (RTL-IR pack, gate-
// netlist pack, kernel race detector), per-rule suppression, and text/JSON
// reporters.  It deliberately depends on nothing but the standard library so
// the lowest layers (sysc::Kernel's race detector) can report through it
// without a dependency cycle.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace osss::lint {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

const char* severity_name(Severity s);

/// One finding.  `rule` is a stable ID from the registry ("RTL-001");
/// `source` labels the analyzed artefact (module/netlist/kernel name);
/// `object` names the offending thing (node, net, signal); `index` is its
/// numeric identity when one exists (NodeId/NetId/state), else -1, so tests
/// and cross-checks can consume findings without parsing strings.
struct Diagnostic {
  std::string rule;
  Severity severity = Severity::kWarning;
  std::string source;
  std::string object;
  std::int64_t index = -1;
  std::string message;
  std::string note;  ///< optional detail: cycle path, histogram, state list

  /// "error[RTL-001] adder.%12: combinational cycle ..." (reporter line).
  std::string format() const;
};

/// Registry entry describing one implemented rule.
struct RuleInfo {
  const char* id;
  const char* pack;  ///< "rtl", "gate", "kernel"
  Severity default_severity = Severity::kWarning;
  const char* title;
  /// A few sentences for `osss-lint --explain <id>` and docs/lint-rules.md:
  /// what the rule detects, why it matters, how the analysis proves it.
  const char* description = "";
};

/// Every rule the repo implements, in stable ID order.
const std::vector<RuleInfo>& rule_registry();

/// Registry lookup; nullptr for unknown IDs.
const RuleInfo* find_rule(const std::string& id);

/// Analysis options shared by the rule packs.
struct Options {
  /// Rule IDs to suppress (matching diagnostics are never emitted).
  std::set<std::string> suppress;
  /// GATE-005: warn when a net drives at least this many cell inputs
  /// (0 = report the histogram only, never warn).
  unsigned fanout_warn_threshold = 0;

  bool suppressed(const std::string& rule) const {
    return suppress.count(rule) != 0;
  }
};

/// A batch of diagnostics plus counting/reporting helpers.
class Report {
 public:
  const std::vector<Diagnostic>& diags() const noexcept { return diags_; }
  bool empty() const noexcept { return diags_.empty(); }
  std::size_t size() const noexcept { return diags_.size(); }

  /// Append a diagnostic (unconditionally — rule suppression is applied by
  /// the emitting analyzer via Options::suppressed).
  void add(Diagnostic d);

  /// Append every diagnostic of `other`.
  void merge(const Report& other);

  std::size_t count(Severity s) const;
  std::size_t error_count() const { return count(Severity::kError); }
  std::size_t warning_count() const { return count(Severity::kWarning); }

  /// No error-severity findings.
  bool clean() const { return error_count() == 0; }

  /// Diagnostics of one rule.
  std::vector<Diagnostic> by_rule(const std::string& rule) const;
  bool has(const std::string& rule) const;

  /// One line per diagnostic plus a summary trailer.
  std::string text() const;

  /// Machine-readable form: {"diagnostics":[...],"errors":N,...}.
  std::string json() const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Escape a string for embedding in a JSON literal (used by reporters and
/// the osss-lint CLI).  Control characters become \u00XX escapes and bytes
/// that are not well-formed UTF-8 become U+FFFD, so the output is always a
/// valid JSON string no matter what bytes leak into a diagnostic.
std::string json_escape(const std::string& s);

/// Render a report as a minimal SARIF 2.1.0 log (one run, `tool.driver` =
/// osss-lint): rules referenced by the results with registry metadata,
/// results with level/message/logical locations, diagnostic index and note
/// carried in `properties`.  CI uploads this for code-scanning ingestion.
std::string to_sarif(const Report& report);

/// Markdown reference for every registered rule — the generator behind
/// `osss-lint --rules-doc` and the committed docs/lint-rules.md (a test
/// keeps file and registry in sync).
std::string rules_markdown();

}  // namespace osss::lint
