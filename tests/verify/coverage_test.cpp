// Tests for the coverage counters: net toggle coverage on gate netlists,
// FSM state/transition coverage on behaviour controllers, and the
// CoverageReport surface the random suites assert on.

#include "verify/coverage.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gate/lower.hpp"
#include "hls/behavior.hpp"
#include "hls/synth.hpp"
#include "meta/expr.hpp"
#include "rtl/builder.hpp"
#include "verify/cosim.hpp"
#include "verify/stimgen.hpp"

namespace osss::verify {
namespace {

using meta::constant;

rtl::Module xor_pipe() {
  rtl::Builder b("pipe");
  rtl::Wire a = b.input("a", 8);
  rtl::Wire x = b.input("b", 8);
  rtl::Wire q = b.reg("q", 8);
  b.connect(q, b.xor_(a, x));
  b.output("o", q);
  return b.take();
}

TEST(ToggleCoverage, DirectSamplingCountsBothEdges) {
  const gate::Netlist nl = gate::lower_to_gates(xor_pipe());
  ToggleCoverage cov(nl);
  ASSERT_GT(cov.total(), 0u);
  EXPECT_EQ(cov.covered(), 0u);

  gate::Simulator sim(nl, gate::SimMode::kEvent);
  // Two complementary vectors toggle every data net.
  sim.set_input("a", Bits(8, 0x00));
  sim.set_input("b", Bits(8, 0x00));
  sim.step();
  cov.sample(sim);
  sim.set_input("a", Bits(8, 0xff));
  sim.set_input("b", Bits(8, 0x00));
  sim.step();
  cov.sample(sim);
  EXPECT_GT(cov.covered(), 0u);
  EXPECT_LE(cov.covered(), cov.total());

  const CoverageItem it = cov.item("gate");
  EXPECT_EQ(it.model, "gate");
  EXPECT_EQ(it.kind, "net-toggle");
  EXPECT_GT(it.percent(), 0.0);
  EXPECT_LE(it.percent(), 100.0);
}

TEST(ToggleCoverage, WideEngineCountsTogglesInEveryLane) {
  // Two complementary vectors through the event engine, sampled once each,
  // against the same two vectors side by side in one sample of a lane
  // engine: lane 0 holds the all-zero vector, so every toggle happens in
  // a lane >= 1 (in the last lane word at 256 lanes).
  const gate::Netlist nl = gate::lower_to_gates(xor_pipe());
  ToggleCoverage scalar(nl);
  gate::Simulator ev(nl, gate::SimMode::kEvent);
  for (const std::uint64_t a : {0x00u, 0xffu}) {
    ev.set_input("a", Bits(8, a));
    ev.step();
    scalar.sample(ev);
  }
  ASSERT_GT(scalar.covered(), 0u);

  gate::CodegenOptions fallback;
  fallback.force_fallback = true;
  for (const unsigned lanes : {64u, 256u}) {
    gate::Simulator sim(nl, gate::SimMode::kNative, lanes, fallback);
    std::vector<std::uint64_t> a(lanes, 0);
    a[lanes - 1] = 0xff;
    sim.set_input_values("a", a);
    sim.step();
    ToggleCoverage cov(nl);
    cov.sample(sim);
    EXPECT_EQ(cov.item("gate").points, scalar.item("gate").points)
        << lanes << " lanes";
  }
}

TEST(ToggleCoverage, ConstantInputsToggleNothing) {
  const gate::Netlist nl = gate::lower_to_gates(xor_pipe());
  ToggleCoverage cov(nl);
  gate::Simulator sim(nl, gate::SimMode::kEvent);
  sim.set_input("a", Bits(8, 0x00));
  sim.set_input("b", Bits(8, 0x00));
  for (int i = 0; i < 8; ++i) {
    sim.step();
    cov.sample(sim);
  }
  // Nets sit at one value forever: nothing reaches "seen both".
  EXPECT_EQ(cov.covered(), 0u);
}

TEST(FsmCoverage, TracksStatesAndTransitions) {
  FsmCoverage cov(4, 5);
  cov.sample(0);
  cov.sample(0);  // self-loop: transition (0,0)
  cov.sample(1);
  cov.sample(2);
  cov.sample(0);
  EXPECT_EQ(cov.states_covered(), 3u);
  EXPECT_EQ(cov.transitions_covered(), 4u);  // 0->0, 0->1, 1->2, 2->0

  const CoverageItem st = cov.state_item("interp");
  EXPECT_EQ(st.kind, "fsm-state");
  EXPECT_EQ(st.covered, 3u);
  EXPECT_EQ(st.total, 4u);
  EXPECT_DOUBLE_EQ(st.percent(), 75.0);

  const CoverageItem tr = cov.transition_item("interp");
  EXPECT_EQ(tr.kind, "fsm-transition");
  EXPECT_EQ(tr.covered, 4u);
  EXPECT_EQ(tr.total, 5u);
}

TEST(FsmCoverage, UnknownTransitionTotalReportsZeroTotal) {
  FsmCoverage cov(3);
  cov.sample(0);
  cov.sample(1);
  const CoverageItem tr = cov.transition_item("m");
  EXPECT_EQ(tr.covered, 1u);
  EXPECT_EQ(tr.total, 0u);
  EXPECT_DOUBLE_EQ(tr.percent(), 0.0);
}

TEST(CoverageReport, FindAndTextSurfaceItems) {
  CoverageReport rep;
  rep.items.push_back({"interp", "fsm-state", 6, 8, {}});
  rep.items.push_back({"gate", "net-toggle", 40, 50, {}});
  ASSERT_NE(rep.find("gate", "net-toggle"), nullptr);
  EXPECT_EQ(rep.find("gate", "net-toggle")->covered, 40u);
  EXPECT_EQ(rep.find("gate", "fsm-state"), nullptr);
  const std::string text = rep.text();
  EXPECT_NE(text.find("net-toggle"), std::string::npos);
  EXPECT_NE(text.find("fsm-state"), std::string::npos);
}

TEST(Coverage, CoSimRunCollectsBothModels) {
  // End-to-end: a behaviour with a small FSM, coverage enabled on both the
  // interpreter and the gate model.
  hls::BehaviorBuilder bb("cov");
  auto go = bb.input("go", 1);
  auto out = bb.var("out", 4, 0, true);
  bb.assign(out, constant(4, 0));
  bb.wait();
  bb.loop([&] {
    bb.if_(go, [&] {
      bb.assign(out, constant(4, 1));
      bb.wait();
      bb.assign(out, constant(4, 2));
      bb.wait();
      bb.assign(out, constant(4, 0));
    });
    bb.wait();
  });
  const hls::Behavior beh = bb.take();

  hls::Report report;
  const rtl::Module m = hls::synthesize(beh, {}, &report);

  CoSim cs;
  auto& interp = cs.add(std::make_unique<InterpModel>(beh));
  interp.enable_fsm_coverage(report.transitions);
  gate::CodegenOptions fallback;
  fallback.force_fallback = true;
  auto& gm = cs.add(std::make_unique<GateModel>(
      gate::lower_to_gates(m), gate::SimMode::kNative, 1, fallback, "gate"));
  gm.enable_toggle_coverage();
  cs.declare_io(beh);
  cs.enable_coverage();

  StimGen gen(StimGen::derive(77, "coverage/cosim"));
  StimConstraint c;
  c.kind = StimKind::kSticky;
  cs.declare_stimulus(gen, c);
  const RunResult r = cs.run(gen, 400);
  ASSERT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), false);

  const CoverageItem* st = r.coverage.find("interp", "fsm-state");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->total, beh.state_count);
  EXPECT_EQ(st->covered, st->total) << "sticky go should reach every state";

  const CoverageItem* tg = r.coverage.find("gate", "net-toggle");
  ASSERT_NE(tg, nullptr);
  EXPECT_GT(tg->covered, 0u);
  EXPECT_LE(tg->covered, tg->total);
}

}  // namespace
}  // namespace osss::verify
