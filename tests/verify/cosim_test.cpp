// Tests for the lockstep co-simulation driver: multi-level agreement,
// lane accounting and the one-lane-count rule, scoreboard mismatch
// reporting and trace replay.

#include "verify/cosim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gate/lower.hpp"
#include "hls/behavior.hpp"
#include "hls/synth.hpp"
#include "meta/expr.hpp"
#include "rtl/builder.hpp"
#include "verify/stimgen.hpp"

namespace osss::verify {
namespace {

using meta::constant;

/// A 64-lane gate model: the native engine's interpreted fallback.
std::unique_ptr<GateModel> lane_model(gate::Netlist nl, std::string name) {
  gate::CodegenOptions fallback;
  fallback.force_fallback = true;
  return std::make_unique<GateModel>(std::move(nl), gate::SimMode::kNative,
                                     64, fallback, std::move(name));
}

/// start -> 3 busy cycles accumulating the input, then idle.
hls::Behavior pulse_behavior() {
  hls::BehaviorBuilder bb("pulse");
  auto start = bb.input("start", 1);
  auto data = bb.input("data", 4);
  auto busy = bb.var("busy", 1, 0, true);
  auto acc = bb.var("acc", 8, 0, true);
  bb.assign(busy, constant(1, 0));
  bb.assign(acc, constant(8, 0));
  bb.wait();
  bb.loop([&] {
    bb.if_(start, [&] {
      bb.assign(busy, constant(1, 1));
      bb.assign(acc, meta::add(acc, meta::zext(data, 8)));
      bb.wait();
      bb.assign(acc, meta::add(acc, meta::zext(data, 8)));
      bb.wait();
      bb.assign(busy, constant(1, 0));
    });
    bb.wait();
  });
  return bb.take();
}

rtl::Module xor_pipe(const char* reg_name = "q") {
  rtl::Builder b("pipe");
  rtl::Wire a = b.input("a", 8);
  rtl::Wire x = b.input("b", 8);
  rtl::Wire q = b.reg(reg_name, 8);
  b.connect(q, b.xor_(a, x));
  b.output("o", q);
  return b.take();
}

/// `nl` with its first xor2 flipped to xnor2: a single-gate mutation.
gate::Netlist xnor_mutant(gate::Netlist nl) {
  for (gate::NetId id = 0; id < nl.cells().size(); ++id)
    if (nl.cells()[id].kind == gate::CellKind::kXor2) {
      nl.mutate_cell(id, gate::CellKind::kXnor2);
      return nl;
    }
  ADD_FAILURE() << "no xor2 to mutate";
  return nl;
}

TEST(CoSim, ThreeLevelsAgreeOnBehaviour) {
  const hls::Behavior beh = pulse_behavior();
  CoSim cs;
  cs.add(std::make_unique<InterpModel>(beh));
  cs.add(std::make_unique<RtlModel>(hls::synthesize(beh)));
  cs.add(std::make_unique<GateModel>(
      gate::lower_to_gates(hls::synthesize(beh)), gate::SimMode::kEvent));
  cs.declare_io(beh);
  StimGen gen(StimGen::derive(1, "CoSim.ThreeLevels"));
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 200, 2);
  EXPECT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), false) << " seed "
                    << gen.seed();
  EXPECT_EQ(r.cycles, 400u);
  EXPECT_EQ(r.vectors, 400u);
  // 2 non-reference models × 2 outputs × 400 cycles.
  EXPECT_EQ(r.checks, 1600u);
}

TEST(CoSim, BitParallelPairScores64LanesPerCycle) {
  const rtl::Module m = xor_pipe();
  CoSim cs;
  cs.add(lane_model(gate::lower_to_gates(m), "a"));
  cs.add(lane_model(gate::lower_to_gates(m), "b"));
  cs.declare_io(m);
  StimGen gen(3);
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 50);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.cycles, 50u);
  EXPECT_EQ(r.vectors, 50u * gate::Simulator::kLanes);
}

/// A co-sim has one lane count: a scalar model next to a 64-lane one is
/// refused, and the same model replicated per lane scores all 64 lanes.
TEST(CoSim, MismatchedLaneCountsThrow) {
  const rtl::Module m = xor_pipe();
  CoSim mixed;
  mixed.add(std::make_unique<RtlModel>(m));
  mixed.add(lane_model(gate::lower_to_gates(m), "gate"));
  mixed.declare_io(m);
  StimGen gen(4);
  mixed.declare_stimulus(gen);
  EXPECT_THROW(mixed.run(gen, 40), std::invalid_argument);
  EXPECT_THROW(mixed.run_trace(Trace{mixed.inputs(), {}}),
               std::invalid_argument);

  CoSim cs;
  cs.add(std::make_unique<ReplicaModel>(
      64, [&m] { return std::make_unique<RtlModel>(m); }));
  cs.add(lane_model(gate::lower_to_gates(m), "gate"));
  cs.declare_io(m);
  const RunResult r = cs.run(gen, 40);
  EXPECT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), true);
  EXPECT_EQ(r.vectors, 40u * 64u);
}

TEST(CoSim, ScoreboardCatchesInjectedFault) {
  const rtl::Module m = xor_pipe();
  const gate::Netlist good = gate::lower_to_gates(m);
  CoSim cs;
  cs.add(std::make_unique<GateModel>(good, gate::SimMode::kEvent, "good"));
  cs.add(std::make_unique<GateModel>(xnor_mutant(good), gate::SimMode::kEvent,
                                     "bad"));
  cs.declare_io(m);
  StimGen gen(5);
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 64);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.mismatch.output, "o");
  EXPECT_EQ(r.mismatch.ref_model, "good");
  EXPECT_EQ(r.mismatch.dut_model, "bad");
  EXPECT_FALSE(r.failing_trace.cycles.empty());
  EXPECT_EQ(r.failing_trace.cycles.size(), r.mismatch.cycle + 1);
  // The recorded trace must reproduce the mismatch exactly.
  const RunResult again = cs.run_trace(r.failing_trace);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.mismatch.cycle, r.mismatch.cycle);
  EXPECT_EQ(again.mismatch.output, r.mismatch.output);
}

TEST(CoSim, FailingLaneExtractedFromWideRun) {
  const rtl::Module m = xor_pipe();
  CoSim cs;
  cs.add(lane_model(gate::lower_to_gates(m), "good"));
  cs.add(lane_model(xnor_mutant(gate::lower_to_gates(m)), "bad"));
  cs.declare_io(m);
  StimGen gen(6);
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 32);
  ASSERT_FALSE(r.ok);
  // Whatever lane failed, its scalar extraction must fail standalone too.
  const RunResult scalar = cs.run_trace(r.failing_trace);
  EXPECT_FALSE(scalar.ok);
}

/// Extraction past the first lane word: in a 256-lane run whose copies
/// from lane 100 on are faulty, the reported lane is a faulty one, and its
/// scalar trace fails a scalar good-vs-bad co-sim.
TEST(CoSim, FailingLaneExtractedPastTheFirstLaneWord) {
  const rtl::Module m = xor_pipe();
  const gate::Netlist good = gate::lower_to_gates(m);
  const gate::Netlist bad = xnor_mutant(good);
  CoSim cs;
  cs.add(std::make_unique<ReplicaModel>(256, [&] {
    return std::make_unique<GateModel>(good, gate::SimMode::kEvent, "good");
  }));
  unsigned made = 0;
  cs.add(std::make_unique<ReplicaModel>(256, [&] {
    return std::make_unique<GateModel>(made++ < 100 ? good : bad,
                                       gate::SimMode::kEvent, "dut");
  }));
  cs.declare_io(m);
  StimGen gen(8);
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 16);
  ASSERT_FALSE(r.ok);
  EXPECT_GE(r.mismatch.lane, 100u);
  EXPECT_EQ(r.failing_trace.cycles.size(), r.mismatch.cycle + 1);

  CoSim scalar;
  scalar.add(std::make_unique<GateModel>(good, gate::SimMode::kEvent, "good"));
  scalar.add(std::make_unique<GateModel>(bad, gate::SimMode::kEvent, "bad"));
  scalar.declare_io(m);
  EXPECT_FALSE(scalar.run_trace(r.failing_trace).ok);
}

TEST(CoSim, DescribeMentionsOutputAndInputs) {
  Mismatch mm;
  mm.sequence = 1;
  mm.cycle = 7;
  mm.output = "o";
  mm.ref_model = "rtl";
  mm.dut_model = "gate";
  mm.ref_value = Bits(8, 0x12);
  mm.dut_value = Bits(8, 0x13);
  mm.inputs = {Bits(8, 0xab)};
  const std::string text = mm.describe({{"a", 8}}, false);
  EXPECT_NE(text.find("output o"), std::string::npos);
  EXPECT_NE(text.find("a=0xab"), std::string::npos);
  EXPECT_NE(text.find("cycle 7"), std::string::npos);
}

}  // namespace
}  // namespace osss::verify
