// Algebraic properties of the pass pipeline:
//
//   * idempotence — the standard pipeline runs to a fixpoint, so running it
//     again changes nothing: one round, zero changes, identical statistics;
//   * pass-order independence of *equivalence* — any permutation of the
//     registered passes yields a netlist equivalent to the input (the areas
//     may differ; correctness may not);
//   * stats conservation — cells_after equals the output netlist's live
//     cell count, and sweep() on the output removes nothing (the pass
//     contract says results are swept).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "expocu/flows.hpp"
#include "gate/equiv.hpp"
#include "gate/lower.hpp"
#include "opt/opt.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::opt {
namespace {

std::vector<gate::Netlist> corpus() {
  std::vector<gate::Netlist> nls;
  const std::uint64_t base = verify::env_seed(6163);
  for (unsigned i = 0; i < 2; ++i) {
    std::mt19937_64 rng(
        verify::StimGen::derive(base, "opt_prop/" + std::to_string(i)));
    verify::RandomModuleOptions shape;
    shape.ops = 30;
    shape.with_memory = i == 1;
    nls.push_back(gate::lower_to_gates(verify::random_module(rng, shape)));
  }
  for (const auto& c : expocu::build_osss_flow())
    if (c.name == "reset_ctrl" || c.name == "histogram")
      nls.push_back(gate::lower_to_gates(c.module));
  return nls;
}

TEST(OptProperty, StandardPipelineIsIdempotent) {
  for (const gate::Netlist& in : corpus()) {
    PipelineOptions po;
    po.self_check = 0;
    Pipeline first = Pipeline::standard(po);
    const gate::Netlist once = first.run(in);

    Pipeline second = Pipeline::standard(po);
    const gate::Netlist twice = second.run(once);
    // The fixpoint is recognized immediately: a single round, all quiet.
    ASSERT_EQ(second.stats().size(), second.pass_count()) << in.name();
    for (const PassStats& s : second.stats()) {
      EXPECT_EQ(s.changes, 0u) << in.name() << "/" << s.pass;
      EXPECT_EQ(s.cells_before, s.cells_after) << in.name() << "/" << s.pass;
      EXPECT_EQ(s.area_before, s.area_after) << in.name() << "/" << s.pass;
      EXPECT_EQ(s.depth_before, s.depth_after) << in.name() << "/" << s.pass;
    }
    EXPECT_EQ(twice.cells().size(), once.cells().size()) << in.name();
  }
}

TEST(OptProperty, AnyPassOrderPreservesEquivalence) {
  std::vector<std::string> names;
  for (const PassInfo& info : pass_registry()) names.emplace_back(info.name);
  std::sort(names.begin(), names.end());

  const std::vector<gate::Netlist> nls = corpus();
  // Permuting the order is a correctness property, not a quality one — run
  // each order once (max_rounds = 1) and check equivalence to the input.
  do {
    PipelineOptions po;
    po.self_check = 0;
    po.max_rounds = 1;
    for (const gate::Netlist& in : nls) {
      Pipeline p(po);
      for (const std::string& n : names) {
        std::unique_ptr<Pass> pass = make_pass(n);
        ASSERT_NE(pass, nullptr) << n;
        p.add(std::move(pass));
      }
      const gate::Netlist out = p.run(in);
      gate::EquivOptions eo;
      eo.sequences = 1;
      eo.cycles = 8;
      eo.seed = verify::StimGen::derive(verify::env_seed(6163),
                                        "opt_prop/order/" + in.name());
      eo.mode_b = gate::SimMode::kNative;  // the 64-lane interpreter
      eo.codegen.force_fallback = true;
      eo.threads = 1;
      const gate::EquivResult r = gate::check_equivalence(in, out, eo);
      std::string order;
      for (const std::string& n : names) order += n + " ";
      EXPECT_TRUE(r.equivalent) << in.name() << " under order " << order
                                << ": " << r.counterexample << " (seed "
                                << eo.seed << ")";
    }
  } while (std::next_permutation(names.begin(), names.end()));
}

TEST(OptProperty, StatsConservation) {
  for (const gate::Netlist& in : corpus()) {
    for (const PassInfo& info : pass_registry()) {
      PipelineOptions po;
      po.self_check = 0;
      po.max_rounds = 1;
      Pipeline p(po);
      p.add(info.make());
      const gate::Netlist out = p.run(in);
      ASSERT_EQ(p.stats().size(), 1u);
      const PassStats& s = p.stats().front();
      EXPECT_EQ(s.cells_before, in.cells().size())
          << in.name() << "/" << info.name;
      EXPECT_EQ(s.cells_after, out.cells().size())
          << in.name() << "/" << info.name;
      gate::Netlist copy = out;
      EXPECT_EQ(copy.sweep(), 0u)
          << in.name() << "/" << info.name << ": pass left dead cells";
    }
  }
}

}  // namespace
}  // namespace osss::opt
