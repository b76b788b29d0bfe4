// osss-opt — command-line front end of the gate-level optimization pipeline.
//
// Lowers the ExpoCU evaluation designs (and optional fuzz corpora of random
// modules) to gates, runs them through the src/opt pass pipeline and reports
// per-pass statistics plus pre/post area and fmax.  Every pass invocation is
// differentially self-checked (gate::check_equivalence input vs output) in
// every build type unless --check=0 opts out; a divergence aborts the run
// with the pass name, derived seed and counterexample, and exits 1.
//
// Usage:
//   osss-opt [--flow=osss|vhdl|both] [--passes=NAME[,NAME...]] [--fuzz=N]
//            [--seed=S] [--check=0|1] [--format=text|json] [--out=FILE]
//            [--list-passes]
//
// --fuzz takes at most 1000000 modules and --seed any unsigned 64-bit
// value; a malformed, negative or out-of-range number is a usage error.
//
// Exit codes: 0 success, 1 differential self-check failure, 2 usage or
// I/O error, or any other failure.

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
#include "gate/timing.hpp"
#include "lint/dataflow.hpp"
#include "opt/opt.hpp"
#include "verify/random_module.hpp"

namespace {

using osss::gate::Library;
using osss::gate::Netlist;
using osss::opt::PassStats;
using osss::tools::kMaxFuzz;
using osss::tools::parse_number;

using FactsPtr = std::shared_ptr<const std::unordered_map<std::string, bool>>;

/// Register-bit constants proven by the RTL-level abstract interpreter,
/// keyed by the lowering's DFF names — the SDC fuel for the satsweep pass
/// (which re-verifies every claim by netlist induction before using it).
FactsPtr facts_of(const osss::rtl::Module& m) {
  auto bits = osss::lint::analyze_dataflow(m).const_reg_bits();
  if (bits.empty()) return nullptr;
  return std::make_shared<const std::unordered_map<std::string, bool>>(
      std::move(bits));
}

struct Unit {
  std::string name;
  std::string flow;  // "osss", "vhdl", "fuzz"
  std::vector<PassStats> stats;
  double area_before = 0.0, area_after = 0.0;
  double fmax_before = 0.0, fmax_after = 0.0;
  std::size_t depth_before = 0, depth_after = 0;
};

struct Cli {
  bool run_osss = true;
  bool run_vhdl = false;
  std::vector<std::string> passes;  // empty = standard pipeline
  unsigned fuzz = 0;
  std::uint64_t seed = 1;
  bool check = true;
  std::string format = "text";
  std::string out;
  bool list_passes = false;
};

bool parse_args(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
      return std::nullopt;
    };
    if (a == "--list-passes") {
      cli.list_passes = true;
    } else if (a == "--check") {
      cli.check = true;
    } else if (auto v = value("--check=")) {
      if (*v != "0" && *v != "1") return false;
      cli.check = *v == "1";
    } else if (auto v = value("--flow=")) {
      cli.run_osss = *v == "osss" || *v == "both";
      cli.run_vhdl = *v == "vhdl" || *v == "both";
      if (!cli.run_osss && !cli.run_vhdl) return false;
    } else if (auto v = value("--passes=")) {
      std::stringstream ss(*v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (osss::opt::make_pass(name) == nullptr) {
          std::cerr << "osss-opt: unknown pass '" << name << "'\n";
          return false;
        }
        cli.passes.push_back(name);
      }
      if (cli.passes.empty()) return false;
    } else if (auto v = value("--fuzz=")) {
      std::uint64_t n = 0;
      if (!parse_number(*v, kMaxFuzz, n)) return false;
      cli.fuzz = static_cast<unsigned>(n);
    } else if (auto v = value("--seed=")) {
      if (!parse_number(*v, ~std::uint64_t{0}, cli.seed)) return false;
    } else if (auto v = value("--format=")) {
      if (*v != "text" && *v != "json") return false;
      cli.format = *v;
    } else if (auto v = value("--out=")) {
      cli.out = *v;
    } else {
      return false;
    }
  }
  return true;
}

osss::opt::Pipeline build_pipeline(const Cli& cli, const Library& lib,
                                   const FactsPtr& facts) {
  osss::opt::PipelineOptions popt;
  popt.lib = &lib;
  popt.self_check = cli.check ? 1 : 0;
  popt.facts = facts;
  if (cli.passes.empty()) return osss::opt::Pipeline::standard(popt);
  osss::opt::Pipeline p(popt);
  for (const std::string& name : cli.passes)
    p.add(osss::opt::make_pass(name));
  return p;
}

Unit optimize_one(const std::string& name, const std::string& flow,
                  const Netlist& nl, const Cli& cli, const Library& lib,
                  const FactsPtr& facts) {
  Unit u;
  u.name = name;
  u.flow = flow;
  const osss::gate::TimingReport before = osss::gate::analyze_timing(nl, lib);
  u.area_before = before.area_ge;
  u.fmax_before = before.fmax_mhz;
  osss::opt::Pipeline pipeline = build_pipeline(cli, lib, facts);
  const Netlist out = pipeline.run(nl);
  u.stats = pipeline.stats();
  const osss::gate::TimingReport after = osss::gate::analyze_timing(out, lib);
  u.area_after = after.area_ge;
  u.fmax_after = after.fmax_mhz;
  if (!u.stats.empty()) {
    u.depth_before = u.stats.front().depth_before;
    u.depth_after = u.stats.back().depth_after;
  }
  return u;
}

double reduction_pct(double before, double after) {
  return before > 0.0 ? 100.0 * (before - after) / before : 0.0;
}

std::string render_text(const std::vector<Unit>& units) {
  std::ostringstream os;
  double total_before = 0.0, total_after = 0.0;
  for (const Unit& u : units) {
    os << "== " << u.flow << "/" << u.name << " ==\n";
    for (const PassStats& s : u.stats) os << "  " << s.format() << "\n";
    os << "  total: area " << u.area_before << " -> " << u.area_after
       << " GE (" << reduction_pct(u.area_before, u.area_after)
       << "% reduction), fmax " << u.fmax_before << " -> " << u.fmax_after
       << " MHz, depth " << u.depth_before << " -> " << u.depth_after << "\n";
    total_before += u.area_before;
    total_after += u.area_after;
  }
  os << "flow total: area " << total_before << " -> " << total_after
     << " GE (" << reduction_pct(total_before, total_after)
     << "% reduction) across " << units.size() << " unit(s)\n";
  return os.str();
}

std::string render_json(const std::vector<Unit>& units) {
  std::ostringstream os;
  double total_before = 0.0, total_after = 0.0;
  os << "{\"units\":[";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    if (i) os << ",";
    os << "{\"name\":\"" << u.name << "\",\"flow\":\"" << u.flow
       << "\",\"area_before\":" << u.area_before
       << ",\"area_after\":" << u.area_after
       << ",\"fmax_before\":" << u.fmax_before
       << ",\"fmax_after\":" << u.fmax_after << ",\"passes\":[";
    for (std::size_t j = 0; j < u.stats.size(); ++j) {
      const PassStats& s = u.stats[j];
      if (j) os << ",";
      os << "{\"pass\":\"" << s.pass << "\",\"cells_before\":" << s.cells_before
         << ",\"cells_after\":" << s.cells_after
         << ",\"gates_before\":" << s.gates_before
         << ",\"gates_after\":" << s.gates_after
         << ",\"dffs_before\":" << s.dffs_before
         << ",\"dffs_after\":" << s.dffs_after
         << ",\"depth_before\":" << s.depth_before
         << ",\"depth_after\":" << s.depth_after
         << ",\"area_before\":" << s.area_before
         << ",\"area_after\":" << s.area_after << ",\"changes\":" << s.changes
         << ",\"fact_merges\":" << s.fact_merges
         << ",\"odc_merges\":" << s.odc_merges
         << ",\"wall_ms\":" << s.wall_ms
         << ",\"verified\":" << (s.verified ? "true" : "false") << "}";
    }
    os << "]}";
    total_before += u.area_before;
    total_after += u.area_after;
  }
  os << "],\"total_area_before\":" << total_before
     << ",\"total_area_after\":" << total_after << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, cli)) {
    std::cerr << "usage: osss-opt [--flow=osss|vhdl|both] "
                 "[--passes=NAME,...] [--fuzz=N] [--seed=S]\n"
                 "                [--check=0|1] [--format=text|json] "
                 "[--out=FILE] [--list-passes]\n";
    return 2;
  }
  if (cli.list_passes) {
    for (const auto& p : osss::opt::pass_registry())
      std::cout << p.name << "  " << p.title << "\n";
    return 0;
  }

  const Library lib = Library::generic();
  std::vector<Unit> units;
  try {
    if (cli.run_osss)
      for (const auto& c : osss::expocu::build_osss_flow())
        units.push_back(optimize_one(c.name, "osss",
                                     osss::gate::lower_to_gates(c.module),
                                     cli, lib, facts_of(c.module)));
    if (cli.run_vhdl)
      for (const auto& c : osss::expocu::build_vhdl_flow())
        units.push_back(optimize_one(c.name, "vhdl",
                                     osss::gate::lower_to_gates(c.module),
                                     cli, lib, facts_of(c.module)));
    std::mt19937_64 rng(cli.seed);
    for (unsigned i = 0; i < cli.fuzz; ++i) {
      osss::verify::RandomModuleOptions ropt;
      ropt.ops = 20 + i % 40;
      ropt.with_memory = i % 3 == 0;
      ropt.with_shared_mux = i % 5 == 0;
      ropt.with_polymorphic = i % 7 == 0;
      const auto m = osss::verify::random_module(rng, ropt);
      units.push_back(optimize_one("fuzz_" + std::to_string(i), "fuzz",
                                   osss::gate::lower_to_gates(m), cli, lib,
                                   facts_of(m)));
    }
  } catch (const osss::opt::PassDivergence& e) {
    std::cerr << "osss-opt: " << e.what() << "\n";
    return 1;  // differential self-check failure
  } catch (const std::exception& e) {
    std::cerr << "osss-opt: " << e.what() << "\n";
    return 2;
  }

  const std::string body =
      cli.format == "json" ? render_json(units) : render_text(units);
  if (cli.out.empty()) {
    std::cout << body;
  } else {
    std::ofstream f(cli.out);
    if (!f) {
      std::cerr << "osss-opt: cannot write '" << cli.out << "'\n";
      return 2;
    }
    f << body;
  }
  return 0;
}
