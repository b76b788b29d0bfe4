// Pass-level differential fuzz harness: every registered optimization pass
// must preserve sequential equivalence on randomly generated netlists.
//
// The corpus is verify::random_module across the four structural shapes the
// OSSS synthesizer emits (base / memory / shared-mux / polymorphic), lowered
// to gates; each case runs one pass standalone (no pipeline self-check — the
// check HERE is the test) and asserts gate::check_equivalence between the
// pass input and output with the event-driven engine on one side and the
// native engine's 64-lane interpreted fallback on the other.  Failures
// print the derived seed the way lower_test does, so a CI log line alone
// reproduces the case (set OSSS_FUZZ_SEED); OSSS_FUZZ_ITERS scales the
// corpus for nightly runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "gate/equiv.hpp"
#include "gate/lower.hpp"
#include "opt/opt.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::opt {
namespace {

struct Shape {
  const char* tag;
  verify::RandomModuleOptions opt;
};

const Shape kShapes[] = {
    {"base", {40, false, false, false}},
    {"mem", {32, true, false, false}},
    {"shared", {32, false, true, false}},
    {"poly", {32, false, false, true}},
};

gate::Netlist make_case(const Shape& shape, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return gate::lower_to_gates(verify::random_module(rng, shape.opt));
}

gate::EquivResult check(const gate::Netlist& before, const gate::Netlist& after,
                        std::uint64_t seed) {
  gate::EquivOptions eo;
  eo.sequences = 1;
  eo.cycles = 8;
  eo.seed = seed;
  eo.mode_a = gate::SimMode::kEvent;
  eo.mode_b = gate::SimMode::kNative;  // the 64-lane interpreter
  eo.codegen.force_fallback = true;
  eo.threads = 1;  // the gtest/ctest case grid is the parallel axis
  return gate::check_equivalence(before, after, eo);
}

/// (pass index in the registry, corpus index).
class OptPassEquiv
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(OptPassEquiv, PassPreservesEquivalence) {
  const PassInfo& info = pass_registry()[std::get<0>(GetParam())];
  const unsigned index = std::get<1>(GetParam());
  const std::unique_ptr<Pass> pass = info.make();
  for (const Shape& shape : kShapes) {
    const std::uint64_t seed = verify::StimGen::derive(
        verify::env_seed(4441), std::string("opt_equiv/") + info.name + "/" +
                                    shape.tag + "/" + std::to_string(index));
    const gate::Netlist before = make_case(shape, seed);
    PassStats stats;
    const gate::Netlist after = pass->run(before, stats);
    const gate::EquivResult r = check(before, after, seed);
    EXPECT_TRUE(r.equivalent)
        << info.name << " diverged on shape '" << shape.tag << "' index "
        << index << ": " << r.counterexample << " (seed " << seed << ")";
  }
}

std::string pass_case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, unsigned>>& info) {
  return std::string(pass_registry()[std::get<0>(info.param)].name) + "_" +
         std::to_string(std::get<1>(info.param));
}

// 4 shapes x 125 indices = 500 netlists per registered pass by default.
INSTANTIATE_TEST_SUITE_P(
    Registry, OptPassEquiv,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, pass_registry().size()),
        ::testing::Range(0u, verify::env_iters(125))),
    pass_case_name);

/// The composed standard pipeline must hold end-to-end, not just per pass —
/// a pass pair could in principle conspire (one emits a shape the next
/// mis-rewrites) in a way the standalone runs never exercise.
class OptPipelineEquiv : public ::testing::TestWithParam<unsigned> {};

TEST_P(OptPipelineEquiv, StandardPipelinePreservesEquivalence) {
  const unsigned index = GetParam();
  for (const Shape& shape : kShapes) {
    const std::uint64_t seed = verify::StimGen::derive(
        verify::env_seed(4441), std::string("opt_equiv/pipeline/") +
                                    shape.tag + "/" + std::to_string(index));
    const gate::Netlist before = make_case(shape, seed);
    PipelineOptions po;
    po.self_check = 0;  // this test is the check
    const gate::Netlist after = optimize(before, po);
    const gate::EquivResult r = check(before, after, seed);
    EXPECT_TRUE(r.equivalent)
        << "pipeline diverged on shape '" << shape.tag << "' index " << index
        << ": " << r.counterexample << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptPipelineEquiv,
                         ::testing::Range(0u, verify::env_iters(25)));

}  // namespace
}  // namespace osss::opt
