// Tests for the compiled word-level tape (rtl/tape.hpp) under SimMode::kTape:
// differential property tests against the interpreter (the oracle) over
// random modules and the ExpoCU components, unit tests for the compiler's
// optimization passes, the engine's level-granular activity gating and
// pokes on both of its evaluators, and a mutation check proving that a
// corrupted tape is caught by the differential harness.

#include "rtl/tape.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "../testutil.hpp"
#include "expocu/flows.hpp"
#include "gate/lower.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::rtl {
namespace {

Module xor_pipe() {
  Builder b("pipe");
  Wire a = b.input("a", 8);
  Wire x = b.input("b", 8);
  Wire q = b.reg("q", 8);
  b.connect(q, b.xor_(a, x));
  b.output("o", q);
  return b.take();
}

/// Differentially run one interpreter per lane vs the tape on `m`, every
/// lane scored, and fail with the CoSim counterexample if they ever
/// diverge.
void expect_tape_matches_interp(const Module& m, std::uint64_t seed,
                                unsigned cycles, unsigned lanes = 1) {
  testutil::expect_lanes_match(
      m, testutil::interp(m),
      testutil::models(
          std::make_unique<verify::RtlModel>(m, SimMode::kTape, lanes)),
      seed, cycles, 2);
}

// --- differential property tests over random_module shapes -----------------

class TapeFuzz : public ::testing::TestWithParam<unsigned> {};

void run_fuzz_case(const char* variant,
                   const verify::RandomModuleOptions& opt, unsigned index) {
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(6271),
      std::string("tape/") + variant + "/" + std::to_string(index));
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(rng, opt);
  expect_tape_matches_interp(m, seed, 120);
}

TEST_P(TapeFuzz, MatchesInterpreter) {
  run_fuzz_case("base", {40, false, false, false}, GetParam());
}

TEST_P(TapeFuzz, WithMemories) {
  run_fuzz_case("mem", {32, true, false, false}, GetParam());
}

TEST_P(TapeFuzz, WithSharedMuxShapes) {
  run_fuzz_case("shared", {32, false, true, false}, GetParam());
}

TEST_P(TapeFuzz, WithPolymorphicDispatch) {
  run_fuzz_case("poly", {32, false, false, true}, GetParam());
}

TEST_P(TapeFuzz, WithEverything) {
  run_fuzz_case("all", {48, true, true, true}, GetParam());
}

/// 64-lane tape vs one interpreter per lane: every lane, lane 0 included,
/// must agree.
TEST_P(TapeFuzz, MultiLaneLaneZeroMatchesInterpreter) {
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(6271), "tape/lanes/" + std::to_string(GetParam()));
  std::mt19937_64 rng(seed);
  const Module m =
      verify::random_module(rng, verify::RandomModuleOptions{32, true, false,
                                                             false});
  expect_tape_matches_interp(m, seed, 40, 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeFuzz,
                         ::testing::Range(0u, verify::env_iters(8)));

/// 64-lane tape vs the 64-lane gate interpreter (the native engine's
/// fallback): every cycle scores 64 independent stimulus vectors through
/// both levels.
TEST(Tape, SixtyFourLanesAgainstBitParallelGates) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(6271), "tape/wide");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(rng, verify::RandomModuleOptions{36});
  verify::CoSim cs;
  cs.add(std::make_unique<verify::RtlModel>(m, SimMode::kTape, 64));
  gate::CodegenOptions fallback;
  fallback.force_fallback = true;
  cs.add(std::make_unique<verify::GateModel>(gate::lower_to_gates(m),
                                             gate::SimMode::kNative, 64,
                                             fallback));
  cs.declare_io(m);
  verify::StimGen gen(seed);
  cs.declare_stimulus(gen);
  const verify::RunResult r = cs.run(gen, 60);
  EXPECT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), true) << " seed "
                    << seed;
  EXPECT_EQ(r.vectors, 60u * 64u);
}

// --- ExpoCU components -----------------------------------------------------

void run_flow_differential(const std::vector<expocu::FlowComponent>& flow) {
  for (const expocu::FlowComponent& c : flow) {
    SCOPED_TRACE(c.name);
    const std::uint64_t seed =
        verify::StimGen::derive(verify::env_seed(6271), "tape/" + c.name);
    expect_tape_matches_interp(c.module, seed, 200);
  }
}

TEST(Tape, MatchesInterpreterOnOsssFlow) {
  run_flow_differential(expocu::build_osss_flow());
}

TEST(Tape, MatchesInterpreterOnVhdlFlow) {
  run_flow_differential(expocu::build_vhdl_flow());
}

// --- compiler pass unit tests ----------------------------------------------

TEST(TapeCompile, FoldsConstantExpressions) {
  Builder b("fold");
  Wire a = b.input("a", 8);
  // (3 + 5) * 2 = 16 is fully constant; a + 16 is not.
  Wire k = b.mul(b.add(b.constant(8, 3), b.constant(8, 5)), b.constant(8, 2));
  b.output("o", b.add(a, k));
  // A shift by >= width is constant zero regardless of its operand.
  b.output("z", b.shli(a, 8));
  const Module m = b.take();

  Simulator sim(m, SimMode::kTape);
  EXPECT_GE(sim.stats().const_folded, 3u);  // the adds/muls over constants
  sim.set_input("a", std::uint64_t{10});
  EXPECT_EQ(sim.output("o").to_u64(), 26u);
  EXPECT_EQ(sim.output("z").to_u64(), 0u);
}

TEST(TapeCompile, PrunesDeadNodes) {
  Builder b("dead");
  Wire a = b.input("a", 8);
  Wire x = b.input("x", 8);
  // Dead subtree: computed from live inputs but feeding no output/register.
  (void)b.mul(b.add(a, x), b.xor_(a, x));
  b.output("o", b.and_(a, x));
  const Module m = b.take();

  Simulator sim(m, SimMode::kTape);
  EXPECT_GE(sim.stats().pruned, 3u);
  sim.set_input("a", std::uint64_t{0x0f});
  sim.set_input("x", std::uint64_t{0x3c});
  EXPECT_EQ(sim.output("o").to_u64(), 0x0cu);
}

TEST(TapeCompile, FusesNoOpCasts) {
  Builder b("fuse");
  Wire a = b.input("a", 8);
  // zext 8 -> 20 keeps the word count: fused.  slice [7:0] of an 8-bit
  // value is the identity: fused.  slice-of-slice composes into one read.
  Wire z = b.zext(a, 20);
  Wire id = b.slice(a, 7, 0);
  Wire s2 = b.slice(b.slice(z, 15, 4), 7, 2);
  b.output("o", b.add(z, b.zext(b.xor_(id, b.zext(s2, 8)), 20)));
  const Module m = b.take();

  Simulator sim(m, SimMode::kTape);
  EXPECT_GE(sim.stats().fused, 2u);
  // Cross-check values against the interpreter for a few stimuli.
  Simulator oracle(m);
  for (std::uint64_t v : {0x00ull, 0xffull, 0xa5ull, 0x3eull}) {
    sim.set_input("a", v);
    oracle.set_input("a", v);
    EXPECT_EQ(sim.output("o").to_u64(), oracle.output("o").to_u64()) << v;
  }
}

TEST(TapeCompile, ExportsProgramGeometry) {
  Simulator sim(xor_pipe(), SimMode::kTape);
  const Simulator::Stats s = sim.stats();
  EXPECT_GT(s.tape_len, 0u);
  EXPECT_GT(s.arena_words, 0u);
  EXPECT_GT(s.levels, 0u);
  EXPECT_EQ(sim.tape().instrs.size(), s.tape_len);
}

TEST(TapeCompile, RejectsBadLaneCounts) {
  EXPECT_THROW(Simulator(xor_pipe(), SimMode::kTape, 0), std::logic_error);
  EXPECT_THROW(Simulator(xor_pipe(), SimMode::kTape, 65), std::logic_error);
  EXPECT_THROW(Simulator(xor_pipe(), SimMode::kInterp, 2), std::logic_error);
}

// --- activity gating -------------------------------------------------------

/// The TapeRun cases run both evaluators of the one tape engine: kTape's
/// lane switch and kNative's threaded handlers (force_fallback, so the
/// interpreted sweep's RunStats count).
struct TapeEvaluator {
  const char* name;
  SimMode mode;
  tape::CodegenOptions codegen;
};

std::vector<TapeEvaluator> tape_evaluators() {
  tape::CodegenOptions fallback;
  fallback.force_fallback = true;
  return {{"tape", SimMode::kTape, {}},
          {"native-fallback", SimMode::kNative, fallback}};
}

TEST(TapeRun, SkipsSettledLevelsWhileShallowLogicToggles) {
  // A deep combinational chain hangs off a register that holds its value,
  // while a shallow level-0 chain hangs off an input that changes every
  // cycle: after the first full sweep, only level 0 is ever dirty and the
  // deep chain's levels are skipped.
  Builder b("gate");
  Wire a = b.input("a", 8);
  Wire q = b.reg("q", 8, std::uint64_t{3});
  b.connect(q, q);  // register holds its init value forever
  Wire v = q;
  for (int i = 0; i < 6; ++i) v = b.add(b.mul(v, v), q);
  b.output("deep", v);
  b.output("shallow", b.xor_(a, b.not_(a)));
  const Module m = b.take();

  for (const TapeEvaluator& ev : tape_evaluators()) {
    SCOPED_TRACE(ev.name);
    Simulator sim(m, ev.mode, 1, ev.codegen);
    for (std::uint64_t c = 0; c < 8; ++c) {
      sim.set_input("a", c);
      sim.step();
    }
    (void)sim.output("deep");
    const Simulator::Stats s = sim.stats();
    EXPECT_GT(s.levels_skipped, 0u);
    // The deep chain ran far fewer times than a gate-less engine would run
    // it.
    EXPECT_LT(s.nodes_evaluated, s.tape_len * std::uint64_t{8});
  }
}

TEST(TapeRun, InputChangeWakesDependentLevels) {
  for (const TapeEvaluator& ev : tape_evaluators()) {
    SCOPED_TRACE(ev.name);
    Simulator sim(xor_pipe(), ev.mode, 1, ev.codegen);
    sim.set_input("a", std::uint64_t{0x11});
    sim.set_input("b", std::uint64_t{0x22});
    sim.step();
    EXPECT_EQ(sim.output("o").to_u64(), 0x33u);
    sim.set_input("a", std::uint64_t{0xf0});
    sim.step();
    EXPECT_EQ(sim.output("o").to_u64(), 0xd2u);
  }
}

// --- facade parity ---------------------------------------------------------

TEST(TapeRun, PokeAndInspectMatchInterpreter) {
  Builder b("mem");
  Wire addr = b.input("addr", 4);
  Wire data = b.input("data", 8);
  Wire we = b.input("we", 1);
  auto mh = b.memory("m", 16, 8);
  b.mem_write(mh, addr, data, we);
  b.output("o", b.mem_read(mh, addr));
  const Module m = b.take();

  for (const TapeEvaluator& ev : tape_evaluators()) {
    SCOPED_TRACE(ev.name);
    Simulator interp(m);
    Simulator tape(m, ev.mode, 1, ev.codegen);
    for (Simulator* s : {&interp, &tape}) {
      s->poke_mem(0, 3, Bits(8, 0xab));
      s->set_input("addr", std::uint64_t{3});
      s->set_input("we", std::uint64_t{0});
      s->set_input("data", std::uint64_t{0});
    }
    EXPECT_EQ(interp.output("o").to_u64(), 0xabu);
    EXPECT_EQ(tape.output("o").to_u64(), 0xabu);
    EXPECT_EQ(tape.mem_word(0, 3).to_u64(), 0xabu);

    for (Simulator* s : {&interp, &tape}) {
      s->set_input("we", std::uint64_t{1});
      s->set_input("data", std::uint64_t{0x5c});
      s->step();
    }
    EXPECT_EQ(interp.mem_word(0, 3).to_u64(), 0x5cu);
    EXPECT_EQ(tape.mem_word(0, 3).to_u64(), 0x5cu);

    for (Simulator* s : {&interp, &tape}) s->reset();
    EXPECT_EQ(interp.mem_word(0, 3).to_u64(), 0u);
    EXPECT_EQ(tape.mem_word(0, 3).to_u64(), 0u);
  }
}

TEST(TapeRun, PokeRegOverridesState) {
  for (const TapeEvaluator& ev : tape_evaluators()) {
    SCOPED_TRACE(ev.name);
    Simulator sim(xor_pipe(), ev.mode, 1, ev.codegen);
    sim.set_input("a", std::uint64_t{0});
    sim.set_input("b", std::uint64_t{0});
    sim.poke_reg("q", Bits(8, 0x7e));
    EXPECT_EQ(sim.output("o").to_u64(), 0x7eu);
  }
}

// --- mutation: a corrupted tape must be caught -----------------------------

TEST(Tape, CorruptedTapeCaughtByDifferentialHarness) {
  const Module m = xor_pipe();
  verify::CoSim cs;
  cs.add(std::make_unique<verify::RtlModel>(m));  // oracle
  auto& dut = cs.add(
      std::make_unique<verify::RtlModel>(m, SimMode::kTape, 1, "bad-tape"));
  // Flip the xor instruction to an or: a one-opcode tape corruption.
  bool mutated = false;
  for (tape::Instr& ins : dut.sim().tape().instrs) {
    if (ins.op == tape::TOp::kXor1) {
      ins.op = tape::TOp::kOr1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  cs.declare_io(m);
  verify::StimGen gen(11);
  cs.declare_stimulus(gen);
  const verify::RunResult r = cs.run(gen, 64);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.mismatch.dut_model, "bad-tape");
  EXPECT_EQ(r.mismatch.output, "o");
}

}  // namespace
}  // namespace osss::rtl
