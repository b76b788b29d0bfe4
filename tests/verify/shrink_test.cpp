// Tests for failing-trace shrinking and replay records.  Includes the
// acceptance scenario of the verification subsystem: a deliberately
// injected single-gate mutation in an ExpoCU component netlist must be
// caught by the random suite and minimized to a replay record of at most
// 10 cycles that reproduces standalone.

#include "verify/shrink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expocu/hw.hpp"
#include "gate/lower.hpp"
#include "hls/synth.hpp"
#include "rtl/builder.hpp"
#include "verify/cosim.hpp"
#include "verify/stimgen.hpp"

namespace osss::verify {
namespace {

/// Mutate the idx-th eligible logic gate (And<->Or, Xor<->Xnor, Inv->Buf).
/// Returns false when fewer than idx+1 eligible gates exist.
bool inject_fault(gate::Netlist& nl, unsigned idx) {
  unsigned seen = 0;
  for (gate::NetId id = 0; id < nl.cells().size(); ++id) {
    gate::CellKind to;
    switch (nl.cells()[id].kind) {
      case gate::CellKind::kAnd2: to = gate::CellKind::kOr2; break;
      case gate::CellKind::kOr2: to = gate::CellKind::kAnd2; break;
      case gate::CellKind::kXor2: to = gate::CellKind::kXnor2; break;
      case gate::CellKind::kXnor2: to = gate::CellKind::kXor2; break;
      case gate::CellKind::kInv: to = gate::CellKind::kBuf; break;
      default: continue;
    }
    if (seen++ == idx) {
      nl.mutate_cell(id, to);
      return true;
    }
  }
  return false;
}

/// The native engine's interpreted fallback at one lane.
gate::CodegenOptions fallback() {
  gate::CodegenOptions opt;
  opt.force_fallback = true;
  return opt;
}

/// Reference netlist (event engine) vs a single-gate mutant of the same
/// design (the one-lane interpreter).  Walks the eligible gates until the
/// scoreboard catches one (a mutation can hit logic that is don't-care
/// under the reachable state space).
struct MutantHunt {
  CoSim cs;
  std::uint64_t seed = 0;
  bool caught = false;
  RunResult first_failure;

  MutantHunt(const hls::Behavior& beh, const char* tag, unsigned cycles) {
    const rtl::Module m = hls::synthesize(beh);
    seed = StimGen::derive(env_seed(2026), tag);
    for (unsigned idx = 0; idx < 64 && !caught; ++idx) {
      gate::Netlist mutant = gate::lower_to_gates(m);
      if (!inject_fault(mutant, idx)) break;
      CoSim trial;
      trial.add(std::make_unique<GateModel>(gate::lower_to_gates(m),
                                            gate::SimMode::kEvent, "ref"));
      trial.add(std::make_unique<GateModel>(std::move(mutant),
                                            gate::SimMode::kNative, 1,
                                            fallback(), "mutant"));
      trial.declare_io(beh);
      StimGen gen(StimGen::derive(seed, std::to_string(idx)));
      StimConstraint c;
      c.kind = StimKind::kSticky;
      trial.declare_stimulus(gen, c);
      RunResult r = trial.run(gen, cycles, 2);
      if (!r.ok) {
        caught = true;
        first_failure = std::move(r);
        cs = std::move(trial);
      }
    }
  }
};

// The subsystem's headline acceptance test: inject a single-gate fault
// into an ExpoCU component, catch it, and shrink the counterexample to a
// replay record of at most 10 cycles.
TEST(Shrink, SingleGateMutationInExpoCuMinimizedToTenCycles) {
  MutantHunt hunt(expocu::build_camera_sync_osss(), "shrink/camera_sync",
                  256);
  ASSERT_TRUE(hunt.caught)
      << "no mutation detected by random run (seed " << hunt.seed << ")";
  ASSERT_FALSE(hunt.first_failure.failing_trace.cycles.empty());

  const ShrinkResult s = shrink(hunt.cs, hunt.first_failure.failing_trace);
  ASSERT_FALSE(s.final_run.ok)
      << "shrinker lost the failure (seed " << hunt.seed << ")";
  EXPECT_LE(s.trace.length(), 10u)
      << "minimized trace too long (seed " << hunt.seed << ", from "
      << s.original_cycles << " cycles)";
  EXPECT_LE(s.trace.length(), s.original_cycles);
  EXPECT_GT(s.predicate_runs, 0u);

  // Package as a replay record; the record alone must reproduce.
  ReplayRecord rec;
  rec.design = "camera_sync_mutant";
  rec.seed = hunt.seed;
  rec.note = s.final_run.mismatch.describe(hunt.cs.inputs(), false);
  rec.trace = s.trace;
  const RunResult replayed = replay(hunt.cs, rec);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.mismatch.output, s.final_run.mismatch.output);
}

TEST(Shrink, ReducesLongRandomPrefixToEssentialCycles) {
  // xor pipe with one xor flipped: any vector with a^b != a~^b fails one
  // cycle later — a minimal counterexample needs at most 2 cycles.
  rtl::Builder b("pipe");
  rtl::Wire a = b.input("a", 8);
  rtl::Wire x = b.input("b", 8);
  rtl::Wire q = b.reg("q", 8);
  b.connect(q, b.xor_(a, x));
  b.output("o", q);
  const rtl::Module m = b.take();

  gate::Netlist bad = gate::lower_to_gates(m);
  ASSERT_TRUE(inject_fault(bad, 0));

  CoSim cs;
  cs.add(std::make_unique<GateModel>(gate::lower_to_gates(m),
                                     gate::SimMode::kEvent, "good"));
  cs.add(std::make_unique<GateModel>(std::move(bad), gate::SimMode::kEvent,
                                     "bad"));
  cs.declare_io(m);
  StimGen gen(StimGen::derive(31, "shrink/pipe"));
  cs.declare_stimulus(gen);
  const RunResult r = cs.run(gen, 300);
  ASSERT_FALSE(r.ok);

  const ShrinkResult s = shrink(cs, r.failing_trace);
  ASSERT_FALSE(s.final_run.ok);
  EXPECT_LE(s.trace.length(), 2u);
  // Bit phase: the surviving vectors should be sparse, not random noise.
  std::uint64_t set_bits = 0;
  for (const auto& cyc : s.trace.cycles)
    for (const Bits& v : cyc) set_bits += v.popcount();
  EXPECT_LE(set_bits, 4u);
}

TEST(Shrink, ReplayRecordRoundTripsThroughText) {
  ReplayRecord rec;
  rec.design = "pipe design #1";
  rec.seed = 0xdeadbeefcafeULL;
  rec.note = "output o = 0x12 (good) vs 0x13 (bad)";
  rec.trace.inputs = {{"a", 8}, {"b", 12}};
  rec.trace.cycles = {{Bits(8, 0xab), Bits(12, 0x5ff)},
                      {Bits(8, 0), Bits(12, 1)}};

  const std::string text = rec.to_text();
  const ReplayRecord back = ReplayRecord::from_text(text);
  EXPECT_EQ(back.design, rec.design);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.note, rec.note);
  ASSERT_EQ(back.trace.inputs.size(), 2u);
  EXPECT_EQ(back.trace.inputs[1].name, "b");
  EXPECT_EQ(back.trace.inputs[1].width, 12u);
  ASSERT_EQ(back.trace.cycles.size(), 2u);
  EXPECT_TRUE(back.trace.cycles[0][1] == rec.trace.cycles[0][1]);
  EXPECT_TRUE(back.trace.cycles[1][0] == rec.trace.cycles[1][0]);
}

TEST(Shrink, FromTextRejectsGarbage) {
  EXPECT_THROW(ReplayRecord::from_text("not a replay"),
               std::invalid_argument);
  EXPECT_THROW(ReplayRecord::from_text(""), std::invalid_argument);
  // Numbers never wrap, read as zero or declare an unbounded width.
  const std::string head = "osss-replay v1\ndesign d\n";
  const std::vector<std::string> bad = {
      "seed -1\n",     "seed abc\n",
      "input a -1\n",  "input a 3000000000\n",
      "input a 0\n",   "input a " + std::to_string(kMaxReplayWidth + 1) + "\n"};
  for (const std::string& body : bad)
    EXPECT_THROW(ReplayRecord::from_text(head + body + "end\n"),
                 std::invalid_argument)
        << body;
  const ReplayRecord widest = ReplayRecord::from_text(
      head + "input a " + std::to_string(kMaxReplayWidth) + "\nend\n");
  ASSERT_EQ(widest.trace.inputs.size(), 1u);
  EXPECT_EQ(widest.trace.inputs[0].width, kMaxReplayWidth);
}

}  // namespace
}  // namespace osss::verify
