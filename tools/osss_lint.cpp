// osss-lint — command-line front end of the analyzer subsystem.
//
// Lints the ExpoCU evaluation designs (both flows, RTL and gate level) and
// fuzz corpora of random modules through the rule packs in src/lint.  CI
// runs `osss-lint --format=json` and fails the build on error-severity
// findings — the reproduction's analogue of the analyzer gate at the front
// of the paper's OSSS design flow (its Fig. 6).
//
// Usage:
//   osss-lint [--flow=osss|vhdl|both] [--level=rtl|gate|both] [--opt]
//             [--fuzz=N] [--seed=S] [--format=text|json|sarif] [--out=FILE]
//             [--suppress=RULE[,RULE...]] [--fail-on=error|warning|never]
//             [--fanout-warn=N] [--list-rules] [--explain=RULE-ID]
//             [--rules-doc]
//
// --fuzz takes at most 1000000 modules, --seed any unsigned 64-bit value
// and --fanout-warn at most 4294967295; a malformed, negative or
// out-of-range number is a usage error.
//
// Exit codes: 0 clean (below fail-on), 1 findings at/above fail-on,
// 2 usage or I/O error.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli.hpp"
#include "expocu/flows.hpp"
#include "gate/lower.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "opt/opt.hpp"
#include "verify/random_module.hpp"

namespace {

using osss::lint::Options;
using osss::lint::Report;
using osss::lint::Severity;
using osss::tools::kMaxFuzz;
using osss::tools::parse_number;

struct Unit {
  std::string name;
  std::string flow;   // "osss", "vhdl", "fuzz"
  std::string level;  // "rtl", "gate"
  Report report;
};

struct Cli {
  bool lint_osss = true;
  bool lint_vhdl = true;
  bool lint_rtl = true;
  bool lint_gate = true;
  bool lint_opt = false;  ///< --opt: run the optimization pipeline, report
                          ///< pass stats as OPT-001/OPT-002 diagnostics
  unsigned fuzz = 0;
  std::uint64_t seed = 1;
  std::string format = "text";
  std::string out;
  std::string fail_on = "error";
  bool list_rules = false;
  bool rules_doc = false;
  std::string explain;  ///< --explain=RULE-ID: print registry description
  Options opt;
};

bool parse_args(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
      return std::nullopt;
    };
    if (a == "--list-rules") {
      cli.list_rules = true;
    } else if (a == "--rules-doc") {
      cli.rules_doc = true;
    } else if (auto v = value("--explain=")) {
      cli.explain = *v;
    } else if (a == "--opt") {
      cli.lint_opt = true;
    } else if (auto v = value("--flow=")) {
      cli.lint_osss = *v == "osss" || *v == "both";
      cli.lint_vhdl = *v == "vhdl" || *v == "both";
      if (!cli.lint_osss && !cli.lint_vhdl) return false;
    } else if (auto v = value("--level=")) {
      cli.lint_rtl = *v == "rtl" || *v == "both";
      cli.lint_gate = *v == "gate" || *v == "both";
      if (!cli.lint_rtl && !cli.lint_gate) return false;
    } else if (auto v = value("--fuzz=")) {
      std::uint64_t n = 0;
      if (!parse_number(*v, kMaxFuzz, n)) return false;
      cli.fuzz = static_cast<unsigned>(n);
    } else if (auto v = value("--seed=")) {
      if (!parse_number(*v, ~std::uint64_t{0}, cli.seed)) return false;
    } else if (auto v = value("--format=")) {
      if (*v != "text" && *v != "json" && *v != "sarif") return false;
      cli.format = *v;
    } else if (auto v = value("--out=")) {
      cli.out = *v;
    } else if (auto v = value("--fail-on=")) {
      if (*v != "error" && *v != "warning" && *v != "never") return false;
      cli.fail_on = *v;
    } else if (auto v = value("--fanout-warn=")) {
      std::uint64_t n = 0;
      if (!parse_number(*v, UINT32_MAX, n)) return false;
      cli.opt.fanout_warn_threshold = static_cast<unsigned>(n);
    } else if (auto v = value("--suppress=")) {
      std::stringstream ss(*v);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (osss::lint::find_rule(rule) == nullptr) {
          std::cerr << "osss-lint: unknown rule '" << rule << "'\n";
          return false;
        }
        cli.opt.suppress.insert(rule);
      }
    } else {
      return false;
    }
  }
  return true;
}

/// Run the optimization pipeline and report its per-pass statistics as
/// diagnostics: OPT-001 (info) per pass, OPT-002 (warning) when a pass
/// regressed area or logic depth.
Report lint_opt_pipeline(const osss::gate::Netlist& nl, const Options& opt,
                         const osss::rtl::Module& m) {
  Report report;
  std::vector<osss::opt::PassStats> stats;
  osss::opt::PipelineOptions po;
  // Feed the pipeline the register-bit constants the abstract interpreter
  // proved on the RTL source — the lint tool already has the module in
  // hand, so the optimizer report reflects the fact-seeded sweep.
  po.facts = std::make_shared<const std::unordered_map<std::string, bool>>(
      osss::lint::analyze_dataflow(m).const_reg_bits());
  osss::opt::optimize(nl, po, &stats);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const auto& s = stats[i];
    if (!opt.suppressed("OPT-001")) {
      osss::lint::Diagnostic d;
      d.rule = "OPT-001";
      d.severity = Severity::kInfo;
      d.source = nl.name();
      d.object = s.pass;
      d.index = static_cast<std::int64_t>(i);
      d.message = "optimization pass statistics";
      d.note = s.format();
      report.add(std::move(d));
    }
    const bool regressed =
        s.area_after > s.area_before || s.depth_after > s.depth_before;
    if (regressed && !opt.suppressed("OPT-002")) {
      osss::lint::Diagnostic d;
      d.rule = "OPT-002";
      d.severity = Severity::kWarning;
      d.source = nl.name();
      d.object = s.pass;
      d.index = static_cast<std::int64_t>(i);
      d.message = "optimization pass regressed area or logic depth";
      d.note = s.format();
      report.add(std::move(d));
    }
  }
  return report;
}

void lint_one(const std::string& name, const std::string& flow,
              const osss::rtl::Module& m, const Cli& cli,
              std::vector<Unit>& units) {
  if (cli.lint_rtl)
    units.push_back(
        {name, flow, "rtl", osss::lint::lint_module(m, cli.opt)});
  if (cli.lint_gate || cli.lint_opt) {
    const auto nl = osss::gate::lower_to_gates(m);
    if (cli.lint_gate)
      units.push_back(
          {name, flow, "gate", osss::lint::lint_netlist(nl, cli.opt)});
    if (cli.lint_opt)
      units.push_back({name, flow, "opt", lint_opt_pipeline(nl, cli.opt, m)});
  }
}

std::string render_text(const std::vector<Unit>& units) {
  std::ostringstream os;
  std::size_t errors = 0, warnings = 0, infos = 0;
  for (const Unit& u : units) {
    os << "== " << u.flow << "/" << u.name << " [" << u.level << "] ==\n"
       << u.report.text() << "\n";
    errors += u.report.error_count();
    warnings += u.report.warning_count();
    infos += u.report.count(Severity::kInfo);
  }
  os << "total: " << errors << " error(s), " << warnings << " warning(s), "
     << infos << " info across " << units.size() << " unit(s)\n";
  return os.str();
}

std::string render_sarif(const std::vector<Unit>& units) {
  // One SARIF run across every unit; the flow and analysis level move into
  // the logical location ("osss/camera_sync[gate].netlist") because the
  // per-module source alone is ambiguous between flows.
  Report merged;
  for (const Unit& u : units) {
    for (osss::lint::Diagnostic d : u.report.diags()) {
      d.source = u.flow + "/" + d.source + "[" + u.level + "]";
      merged.add(std::move(d));
    }
  }
  return osss::lint::to_sarif(merged) + "\n";
}

std::string render_json(const std::vector<Unit>& units) {
  std::ostringstream os;
  std::size_t errors = 0, warnings = 0, infos = 0;
  os << "{\"units\":[";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    if (i) os << ",";
    os << "{\"name\":\"" << osss::lint::json_escape(u.name) << "\",\"flow\":\""
       << u.flow << "\",\"level\":\"" << u.level
       << "\",\"report\":" << u.report.json() << "}";
    errors += u.report.error_count();
    warnings += u.report.warning_count();
    infos += u.report.count(Severity::kInfo);
  }
  os << "],\"errors\":" << errors << ",\"warnings\":" << warnings
     << ",\"info\":" << infos << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, cli)) {
    std::cerr << "usage: osss-lint [--flow=osss|vhdl|both] "
                 "[--level=rtl|gate|both] [--opt] [--fuzz=N] [--seed=S]\n"
                 "                 [--format=text|json|sarif] [--out=FILE] "
                 "[--suppress=RULE,...]\n"
                 "                 [--fail-on=error|warning|never] "
                 "[--fanout-warn=N] [--list-rules]\n"
                 "                 [--explain=RULE-ID] [--rules-doc]\n";
    return 2;
  }
  if (cli.list_rules) {
    for (const auto& r : osss::lint::rule_registry())
      std::cout << r.id << "  " << osss::lint::severity_name(r.default_severity)
                << "  [" << r.pack << "]  " << r.title << "\n";
    return 0;
  }
  if (cli.rules_doc) {
    std::cout << osss::lint::rules_markdown();
    return 0;
  }
  if (!cli.explain.empty()) {
    const osss::lint::RuleInfo* r = osss::lint::find_rule(cli.explain);
    if (r == nullptr) {
      std::cerr << "osss-lint: unknown rule '" << cli.explain
                << "' (see --list-rules)\n";
      return 2;
    }
    std::cout << r->id << " — " << r->title << "\n"
              << "pack: " << r->pack << ", default severity: "
              << osss::lint::severity_name(r->default_severity) << "\n\n"
              << r->description << "\n";
    return 0;
  }

  std::vector<Unit> units;
  try {
    if (cli.lint_osss)
      for (const auto& c : osss::expocu::build_osss_flow())
        lint_one(c.name, "osss", c.module, cli, units);
    if (cli.lint_vhdl)
      for (const auto& c : osss::expocu::build_vhdl_flow())
        lint_one(c.name, "vhdl", c.module, cli, units);
    std::mt19937_64 rng(cli.seed);
    for (unsigned i = 0; i < cli.fuzz; ++i) {
      osss::verify::RandomModuleOptions ropt;
      ropt.ops = 20 + i % 40;
      ropt.with_memory = i % 3 == 0;
      ropt.with_shared_mux = i % 5 == 0;
      ropt.with_polymorphic = i % 7 == 0;
      const auto m = osss::verify::random_module(rng, ropt);
      lint_one("fuzz_" + std::to_string(i), "fuzz", m, cli, units);
    }
  } catch (const std::exception& e) {
    std::cerr << "osss-lint: " << e.what() << "\n";
    return 2;
  }

  const std::string body = cli.format == "json"    ? render_json(units)
                           : cli.format == "sarif" ? render_sarif(units)
                                                   : render_text(units);
  if (cli.out.empty()) {
    std::cout << body;
  } else {
    std::ofstream f(cli.out);
    if (!f) {
      std::cerr << "osss-lint: cannot write '" << cli.out << "'\n";
      return 2;
    }
    f << body;
  }

  std::size_t gating = 0;
  for (const Unit& u : units) {
    if (cli.fail_on == "error") gating += u.report.error_count();
    if (cli.fail_on == "warning")
      gating += u.report.error_count() + u.report.warning_count();
  }
  return gating == 0 ? 0 : 1;
}
