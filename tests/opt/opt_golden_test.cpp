// Golden per-pass statistics over the six ExpoCU components (OSSS flow),
// mirroring the emitter goldens: a silent optimization regression — a rule
// that stops matching, a pass that stops converging — shifts the committed
// area/depth trajectory and fails here, while small legitimate drifts stay
// inside the tolerance bands (±2% area, ±1 logic level).
//
// The next block pins the headline result the R1/R2 experiments report:
// at least three of the six components shrink by ≥10% gate area, and no
// component's critical path gets longer.  The last one pins the exact
// optimizer output of all twelve units, OSSS and VHDL flow.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "expocu/flows.hpp"
#include "gate/lower.hpp"
#include "gate/timing.hpp"
#include "gate/verilog.hpp"
#include "lint/dataflow.hpp"
#include "opt/opt.hpp"

namespace osss::opt {
namespace {

struct PassGolden {
  const char* pass;
  double area_after;       ///< GE after this pass, first pipeline round
  std::size_t depth_after; ///< logic levels after this pass, first round
};

struct ComponentGolden {
  const char* component;
  PassGolden rounds[4];   ///< rewrite, satsweep, retime, techmap (round 1)
  double final_area;      ///< GE at the pipeline fixpoint
  std::size_t final_depth;
};

// Harvested from osss-opt --flow=osss with the generic library.
const ComponentGolden kGolden[] = {
    {"camera_sync",
     {{"rewrite", 89.5, 2}, {"satsweep", 89.5, 2}, {"retime", 89.5, 1},
      {"techmap", 89.5, 1}},
     89.5, 1},
    {"histogram",
     {{"rewrite", 472.5, 18}, {"satsweep", 462, 16}, {"retime", 462, 16},
      {"techmap", 462, 16}},
     462, 16},
    {"threshold_calc",
     {{"rewrite", 2131.5, 39}, {"satsweep", 2131.5, 39},
      {"retime", 2131.5, 39}, {"techmap", 1954.5, 26}},
     1954.5, 26},
    {"param_calc",
     {{"rewrite", 2494, 57}, {"satsweep", 2244, 57}, {"retime", 2244, 57},
      {"techmap", 1913, 36}},
     1893, 36},
    {"i2c_master",
     {{"rewrite", 1108.5, 66}, {"satsweep", 751.5, 65}, {"retime", 751.5, 65},
      {"techmap", 685, 64}},
     683, 64},
    {"reset_ctrl",
     {{"rewrite", 66.5, 5}, {"satsweep", 64, 4}, {"retime", 64, 4},
      {"techmap", 63, 4}},
     63, 4},
};

void expect_area_near(double got, double want, const std::string& what) {
  const double band = std::max(2.0, 0.02 * want);
  EXPECT_NEAR(got, want, band) << what;
}

void expect_depth_near(std::size_t got, std::size_t want,
                       const std::string& what) {
  const auto g = static_cast<long>(got), w = static_cast<long>(want);
  EXPECT_LE(std::labs(g - w), 1) << what << ": depth " << got << " vs golden "
                                 << want;
}

TEST(OptGolden, PerPassStatsMatchCommittedTrajectory) {
  const gate::Library lib = gate::Library::generic();
  std::map<std::string, gate::Netlist> lowered;
  for (const auto& c : expocu::build_osss_flow())
    lowered.emplace(c.name, gate::lower_to_gates(c.module));

  for (const ComponentGolden& g : kGolden) {
    const auto it = lowered.find(g.component);
    ASSERT_NE(it, lowered.end()) << g.component;
    PipelineOptions po;
    po.lib = &lib;
    Pipeline p = Pipeline::standard(po);
    const gate::Netlist out = p.run(it->second);
    const std::vector<PassStats>& stats = p.stats();
    ASSERT_GE(stats.size(), 4u) << g.component;
    // Every run ends on a zero-change fixpoint round within the round cap.
    std::size_t tail_changes = 0;
    for (std::size_t i = stats.size() - 4; i < stats.size(); ++i)
      tail_changes += stats[i].changes;
    EXPECT_EQ(tail_changes, 0u) << g.component << " did not converge";

    for (std::size_t i = 0; i < 4; ++i) {
      const std::string what =
          std::string(g.component) + "/" + g.rounds[i].pass;
      ASSERT_EQ(stats[i].pass, g.rounds[i].pass) << what;
      expect_area_near(stats[i].area_after, g.rounds[i].area_after, what);
      expect_depth_near(stats[i].depth_after, g.rounds[i].depth_after, what);
    }
    expect_area_near(stats.back().area_after, g.final_area,
                     std::string(g.component) + "/final");
    expect_depth_near(stats.back().depth_after, g.final_depth,
                      std::string(g.component) + "/final");
    expect_area_near(lib.area_of(out), stats.back().area_after,
                     std::string(g.component) + "/stats-vs-netlist");
  }
}

TEST(OptGolden, HeadlineResultHolds) {
  const gate::Library lib = gate::Library::generic();
  unsigned big_wins = 0;
  for (const auto& c : expocu::build_osss_flow()) {
    const gate::Netlist before = gate::lower_to_gates(c.module);
    PipelineOptions po;
    po.lib = &lib;
    const gate::Netlist after = optimize(before, po);
    const gate::TimingReport tb = gate::analyze_timing(before, lib);
    const gate::TimingReport ta = gate::analyze_timing(after, lib);
    EXPECT_LE(ta.critical_path_ps, tb.critical_path_ps + 1e-6)
        << c.name << ": critical path regressed";
    EXPECT_LE(ta.area_ge, tb.area_ge + 1e-6) << c.name << ": area regressed";
    if (ta.area_ge <= 0.9 * tb.area_ge) ++big_wins;
  }
  EXPECT_GE(big_wins, 3u)
      << "fewer than 3 of 6 ExpoCU components reach a 10% area reduction";
}

// Exact output of the pipeline on the benchmark's inputs: both flows, the
// dataflow facts, the pipeline defaults.  The tolerance bands above let a
// refactor that changes a merge slip through; this pins every satsweep
// round's merge counts and a 64-bit FNV-1a hash of the emitted Verilog.
struct SweepCounts {
  std::size_t changes, fact_merges, odc_merges;
};

struct ExactGolden {
  const char* flow;
  const char* component;
  std::uint64_t verilog_fnv1a;
  std::vector<SweepCounts> satsweep;  ///< one entry per pipeline round
};

const ExactGolden kExact[] = {
    {"osss", "camera_sync", 0x62186c5767781e03ull, {{0, 0, 0}, {0, 0, 0}}},
    {"osss", "histogram", 0xcef27b2da75c0810ull, {{4, 0, 1}, {0, 0, 0}}},
    {"osss", "threshold_calc", 0x9ca34083e4e31a8dull, {{0, 0, 0}, {0, 0, 0}}},
    {"osss", "param_calc", 0x029cf8d70d202319ull,
     {{117, 3, 26}, {6, 0, 4}, {0, 0, 0}}},
    {"osss", "i2c_master", 0xd50f36a5817a467cull,
     {{256, 0, 28}, {1, 0, 0}, {0, 0, 0}}},
    {"osss", "reset_ctrl", 0x20ef6a65c3d94ae6ull, {{1, 0, 1}, {0, 0, 0}}},
    {"vhdl", "camera_sync", 0x5b87516166200c3dull, {{0, 0, 0}, {0, 0, 0}}},
    {"vhdl", "histogram", 0xcef27b2da75c0810ull, {{4, 0, 1}, {0, 0, 0}}},
    {"vhdl", "threshold_calc", 0x5bb70f754e473086ull, {{0, 0, 0}, {0, 0, 0}}},
    {"vhdl", "param_calc", 0xb4983f7caaa5f994ull,
     {{13, 2, 4}, {8, 0, 5}, {0, 0, 0}}},
    {"vhdl", "i2c_master", 0x530aaa5fc0f1e9ccull,
     {{63, 0, 0}, {0, 0, 0}, {0, 0, 0}}},
    {"vhdl", "reset_ctrl", 0x96f3d93f266a3becull, {{1, 0, 1}, {0, 0, 0}}},
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s)
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  return h;
}

TEST(OptGolden, ExactOutputOnBothFlows) {
  const gate::Library lib = gate::Library::generic();
  std::map<std::string, const ExactGolden*> golden;
  for (const ExactGolden& g : kExact)
    golden.emplace(std::string(g.flow) + "/" + g.component, &g);
  std::size_t checked = 0;
  for (const bool osss_flow : {true, false}) {
    const std::string flow = osss_flow ? "osss" : "vhdl";
    for (const auto& c : osss_flow ? expocu::build_osss_flow()
                                   : expocu::build_vhdl_flow()) {
      const std::string what = flow + "/" + c.name;
      PipelineOptions po;
      po.lib = &lib;
      po.facts = std::make_shared<const std::unordered_map<std::string, bool>>(
          lint::analyze_dataflow(c.module).const_reg_bits());
      std::vector<PassStats> stats;
      const gate::Netlist out =
          optimize(gate::lower_to_gates(c.module), po, &stats);
      std::vector<SweepCounts> sweeps;
      for (const PassStats& ps : stats)
        if (ps.pass == "satsweep")
          sweeps.push_back({ps.changes, ps.fact_merges, ps.odc_merges});
      const std::uint64_t hash = fnv1a(gate::write_verilog(out));
      const auto it = golden.find(what);
      ASSERT_NE(it, golden.end()) << "no golden for " << what;
      const ExactGolden& g = *it->second;
      EXPECT_EQ(hash, g.verilog_fnv1a)
          << what << ": Verilog hash 0x" << std::hex << hash;
      ASSERT_EQ(sweeps.size(), g.satsweep.size()) << what << ": rounds";
      for (std::size_t r = 0; r < sweeps.size(); ++r) {
        const std::string round = what + " round " + std::to_string(r + 1);
        EXPECT_EQ(sweeps[r].changes, g.satsweep[r].changes) << round;
        EXPECT_EQ(sweeps[r].fact_merges, g.satsweep[r].fact_merges) << round;
        EXPECT_EQ(sweeps[r].odc_merges, g.satsweep[r].odc_merges) << round;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kExact));
}

}  // namespace
}  // namespace osss::opt
