// flow.cpp — the design-flow job: all twelve ExpoCU units (six OSSS,
// six VHDL) through build -> dataflow facts -> lowering -> optimization ->
// timing, one unit at a time on one thread, with the pipeline defaults.
// This is the designer's turnaround and the R1/R2 path; no simulator runs
// inside the timed part.  Every optimized unit is then checked against its
// lowered netlist with gate::check_equivalence.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "expocu/flows.hpp"
#include "gate/equiv.hpp"
#include "gate/lower.hpp"
#include "gate/timing.hpp"
#include "lint/dataflow.hpp"
#include "opt/opt.hpp"
#include "trace.hpp"
#include "verify/stimgen.hpp"

namespace perfbench {
namespace {

using namespace osss;

constexpr const char* kPasses[] = {"rewrite", "satsweep", "retime",
                                   "techmap"};

struct Unit {
  std::string name;
  gate::Netlist pre, post;
  double seconds = 0.0;  ///< facts + lowering + optimization + timing
  std::size_t probe = 0;  ///< the host probe taken right after it
  double area = 0.0;
  double fmax = 0.0;
};

/// Flow counters of one half, summed over the units of each run.
struct Counts {
  std::uint64_t const_reg_bits = 0, lower_cells = 0, rounds = 0, merges = 0,
                fact_merges = 0, odc_merges = 0, cells_after = 0, depth = 0;
  std::map<std::string, double> pass_s;  // "<flow>.<pass>" -> seconds
};

struct Half {
  double build_s = 0.0;
  std::size_t build_probe = 0;
  double area = 0.0;
  double fmax = 0.0;
  std::vector<Unit> units;
};

Half run_half(bool osss_flow, const gate::Library& lib, HostSpeed& host,
              Tracer& tr, Counts& counts) {
  const std::string tag = osss_flow ? "osss" : "vhdl";
  Half h;
  h.fmax = 1e30;
  Tracer::Span half(tr, "flow." + tag);
  std::vector<expocu::FlowComponent> comps;
  host.probe();
  {
    Tracer::Span s(tr, "expocu.build");
    comps = osss_flow ? expocu::build_osss_flow() : expocu::build_vhdl_flow();
    h.build_s = s.elapsed();
  }
  h.build_probe = host.probe();
  opt::PipelineOptions po;
  po.lib = &lib;
  for (const expocu::FlowComponent& c : comps) {
    host.probe();
    const auto t0 = Clock::now();
    {
      Tracer::Span s(tr, "lint.dataflow");
      auto facts = lint::analyze_dataflow(c.module).const_reg_bits();
      counts.const_reg_bits += facts.size();
      po.facts =
          std::make_shared<const std::unordered_map<std::string, bool>>(
              std::move(facts));
    }
    gate::Netlist pre = [&] {
      Tracer::Span s(tr, "gate.lower");
      return gate::lower_to_gates(c.module);
    }();
    counts.lower_cells += pre.cells().size();
    std::vector<opt::PassStats> stats;
    gate::Netlist post = [&] {
      Tracer::Span s(tr, "opt." + tag + "." + c.name);
      return opt::optimize(pre, po, &stats);
    }();
    const gate::TimingReport t = [&] {
      Tracer::Span s(tr, "gate.sta");
      return gate::analyze_timing(post, lib);
    }();
    Unit u{c.name, std::move(pre), std::move(post), seconds_since(t0)};
    u.probe = host.probe();
    u.area = lib.area_of(u.post);
    u.fmax = t.fmax_mhz;
    counts.rounds += stats.size() / std::size(kPasses);
    for (const opt::PassStats& ps : stats) {
      counts.pass_s[tag + "." + ps.pass] += ps.wall_ms * 1e-3;
      if (ps.pass == "satsweep") {
        counts.merges += ps.changes;
        counts.fact_merges += ps.fact_merges;
        counts.odc_merges += ps.odc_merges;
      }
    }
    if (!stats.empty()) counts.cells_after += stats.back().cells_after;
    counts.depth += t.levels;
    h.area += u.area;
    h.fmax = std::min(h.fmax, u.fmax);
    h.units.push_back(std::move(u));
  }
  return h;
}

/// True when two netlists match cell for cell, port for port and memory
/// for memory (debug names aside), so they behave identically.
bool same_netlist(const gate::Netlist& a, const gate::Netlist& b) {
  const auto same_cell = [](const gate::Cell& x, const gate::Cell& y) {
    return x.kind == y.kind && x.ins == y.ins && x.init == y.init &&
           x.param == y.param && x.param2 == y.param2;
  };
  const auto same_bus = [](const gate::Bus& x, const gate::Bus& y) {
    return x.name == y.name && x.nets == y.nets;
  };
  const auto same_mem = [](const gate::MemMacro& x, const gate::MemMacro& y) {
    const auto same_port = [](const gate::MemMacro::WritePort& p,
                              const gate::MemMacro::WritePort& q) {
      return p.addr == q.addr && p.data == q.data && p.enable == q.enable;
    };
    return x.depth == y.depth && x.width == y.width &&
           std::equal(x.writes.begin(), x.writes.end(), y.writes.begin(),
                      y.writes.end(), same_port);
  };
  return std::equal(a.cells().begin(), a.cells().end(), b.cells().begin(),
                    b.cells().end(), same_cell) &&
         std::equal(a.inputs().begin(), a.inputs().end(), b.inputs().begin(),
                    b.inputs().end(), same_bus) &&
         std::equal(a.outputs().begin(), a.outputs().end(),
                    b.outputs().begin(), b.outputs().end(), same_bus) &&
         std::equal(a.memories().begin(), a.memories().end(),
                    b.memories().begin(), b.memories().end(), same_mem);
}

class FlowJob final : public Job {
 public:
  FlowJob(const Options& opt, HostSpeed& host, Tracer& tr)
      : opt_(opt), host_(host), tr_(tr), lib_(gate::Library::generic()) {}

  /// One pass: the OSSS half, then the VHDL half twice.  The VHDL half
  /// takes a quarter of the OSSS half's time and one unit (param_calc)
  /// dominates it, so it is sampled twice as often for the same spread.
  void step() override {
    rotate_cpu();
    for (const int f : {0, 1, 1}) {
      const bool osss_flow = f == 0;
      const char* tag = osss_flow ? "osss" : "vhdl";
      Half h;
      try {
        h = run_half(osss_flow, lib_, host_, tr_, counts_[f]);
      } catch (const std::exception& e) {
        tally_.fail(std::string("flow ") + tag + ": " + e.what(), 6);
        continue;
      }
      ++runs_[f];
      times_[f]["expocu.build"].add(h.build_s, h.build_probe);
      for (const Unit& u : h.units) times_[f][u.name].add(u.seconds, u.probe);
      const bool first = first_[f].units.empty();
      if (first && f == 0 && opt_.fault == "flow" &&
          !plant_output_fault(h.units.front().post))
        tally_.fail("flow: no cell to plant the fault in");
      check(f, tag, h);
      if (first) first_[f] = std::move(h);
    }
  }

  JobResult finish() override {
    JobResult out;
    out.tally = tally_;
    double half_s[2] = {0.0, 0.0}, raw_s[2] = {0.0, 0.0};
    for (int f = 0; f < 2; ++f)
      for (const auto& [what, times] : times_[f]) {
        half_s[f] += mean(times.at_reference(host_));
        raw_s[f] += mean(times.as_timed);
      }
    auto& e = out.end_to_end;
    e["flow_osss_s"] = {half_s[0], "s"};
    e["flow_vhdl_s"] = {half_s[1], "s"};
    out.raw["flow_osss_s"] = {raw_s[0], "s"};
    out.raw["flow_vhdl_s"] = {raw_s[1], "s"};
    e["osss_area_ge"] = {first_[0].area, "GE"};
    e["vhdl_area_ge"] = {first_[1].area, "GE"};
    e["osss_fmax_mhz"] = {first_[0].units.empty() ? 0.0 : first_[0].fmax,
                          "MHz"};
    e["vhdl_fmax_mhz"] = {first_[1].units.empty() ? 0.0 : first_[1].fmax,
                          "MHz"};
    if (!tr_.enabled() || runs_[0] == 0 || runs_[1] == 0) return out;

    // Per-layer figures are per flow pass: one run of each half, so they
    // do not depend on how many times a half ran.
    const double n[2] = {static_cast<double>(runs_[0]),
                         static_cast<double>(runs_[1])};
    const auto span = [&](const std::string& name) {
      return tr_.span_total(name, "flow.osss") / n[0] +
             tr_.span_total(name, "flow.vhdl") / n[1];
    };
    const auto count = [&](std::uint64_t Counts::*field) {
      return static_cast<double>(counts_[0].*field) / n[0] +
             static_cast<double>(counts_[1].*field) / n[1];
    };
    auto& p = out.per_layer;
    p["flow.expocu.build_s"] = {span("expocu.build"), "s"};
    p["flow.lint.dataflow_s"] = {span("lint.dataflow"), "s"};
    p["flow.lint.const_reg_bits"] = {count(&Counts::const_reg_bits), "count"};
    p["flow.gate.lower_s"] = {span("gate.lower"), "s"};
    p["flow.gate.lower_cells"] = {count(&Counts::lower_cells), "count"};
    for (int f = 0; f < 2; ++f) {
      const std::string tag = f == 0 ? "osss" : "vhdl";
      for (const char* pass : kPasses)
        p["flow.opt." + tag + "." + pass + "_s"] = {
            counts_[f].pass_s[tag + "." + pass] / n[f], "s"};
      for (const Unit& u : first_[f].units)
        p["flow.opt." + tag + "." + u.name + "_s"] = {
            tr_.span_total("opt." + tag + "." + u.name, "job.flow") / n[f],
            "s"};
    }
    p["flow.opt.rounds"] = {count(&Counts::rounds), "count"};
    p["flow.opt.merges"] = {count(&Counts::merges), "count"};
    p["flow.opt.fact_merges"] = {count(&Counts::fact_merges), "count"};
    p["flow.opt.odc_merges"] = {count(&Counts::odc_merges), "count"};
    p["flow.opt.cells_after"] = {count(&Counts::cells_after), "count"};
    p["flow.gate.sta_s"] = {span("gate.sta"), "s"};
    p["flow.gate.depth"] = {count(&Counts::depth), "levels"};
    // The equivalence check runs on the first run of each half only.
    p["flow.verify.equiv_s"] = {tr_.span_total("verify.equiv", "job.flow"),
                                "s"};
    p["flow.verify.equiv_vectors"] = {static_cast<double>(equiv_vectors_),
                                      "count"};
    return out;
  }

 private:
  /// Output check, outside the timed flow.  The first run of a half checks
  /// each optimized unit against its lowered netlist (default engines,
  /// seed from the argument); every later run must reproduce the first
  /// run's netlists exactly.
  void check(int f, const char* tag, const Half& h) {
    const bool first = first_[f].units.empty();
    std::optional<Tracer::Span> s;
    if (first) s.emplace(tr_, "verify.equiv");
    for (std::size_t i = 0; i < h.units.size(); ++i) {
      const Unit& u = h.units[i];
      const std::string id = std::string(tag) + "/" + u.name;
      if (!first) {
        if (same_netlist(u.post, first_[f].units[i].post))
          tally_.pass();
        else
          tally_.fail("flow " + id + ": run differs from the first");
        continue;
      }
      gate::EquivOptions eo;
      eo.seed = verify::StimGen::derive(opt_.seed, "flow/equiv/" + id);
      eo.threads = 1;
      const gate::EquivResult r = gate::check_equivalence(u.pre, u.post, eo);
      equiv_vectors_ += r.cycles_checked;
      if (r) tally_.pass();
      else tally_.fail("flow " + id + ": " + r.counterexample);
    }
  }

  const Options& opt_;
  HostSpeed& host_;
  Tracer& tr_;
  const gate::Library lib_;
  Tally tally_;
  /// Per half (0 OSSS, 1 VHDL): its time is the mean build plus each
  /// unit's mean run (a unit runs three to eight times in a run).
  std::map<std::string, Samples> times_[2];
  Half first_[2];
  Counts counts_[2];
  unsigned runs_[2] = {0, 0};
  std::uint64_t equiv_vectors_ = 0;
};

}  // namespace

std::unique_ptr<Job> make_flow_job(const Options& opt, HostSpeed& host,
                                   Tracer& tr) {
  return std::make_unique<FlowJob>(opt, host, tr);
}

}  // namespace perfbench
