// native_test.cpp — differential tests for the gate native-code backend.
//
// Differential checks of NativeEngine at the case's lane count against one
// event-driven oracle per lane (verify::ReplicaModel), every lane scored,
// over lowered random_module designs, optimized netlists and hand-built
// memory shapes.  The fuzz sweep runs the interpreted fallback (no compile
// cost per case); dedicated suites exercise the real compile + dlopen path
// (checked together with the fallback), the silent bogus-compiler
// fallback, the shared jit object cache, wide-lane batch running, and
// mutation observability (a gate-kind flip must be caught through the
// native engine).

#include "gate/codegen.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>

#include "../testutil.hpp"
#include "gate/equiv.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"
#include "par/batch.hpp"
#include "par/pool.hpp"
#include "rtl/builder.hpp"
#include "verify/cosim.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::gate {
namespace {

using rtl::Builder;
using rtl::Wire;

/// True when the environment disables the JIT (e.g. the TSan CI job, which
/// cannot instrument dlopen'd code) — real-compile assertions are skipped.
bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

CodegenOptions fallback() {
  CodegenOptions opt;
  opt.force_fallback = true;
  return opt;
}

/// One event engine per lane (the reference) vs the native engine at
/// `lanes` and, when `opt` compiles, its interpreted fallback at the same
/// lanes: two sequences of `cycles` cycles, every lane scored.
void expect_matches_event(const Netlist& nl, std::uint64_t seed,
                          unsigned cycles, unsigned lanes,
                          CodegenOptions opt) {
  auto duts = testutil::models(std::make_unique<verify::GateModel>(
      nl, SimMode::kNative, lanes, opt, "native"));
  if (!opt.force_fallback)
    duts.push_back(std::make_unique<verify::GateModel>(
        nl, SimMode::kNative, lanes, fallback(), "fallback"));
  testutil::expect_lanes_match(nl, testutil::event(nl), std::move(duts), seed,
                               cycles, 2);
}

Netlist random_netlist(const char* /*variant*/,
                       const verify::RandomModuleOptions& opt,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return lower_to_gates(verify::random_module(rng, opt));
}

std::uint64_t case_seed(const char* variant, unsigned index) {
  return verify::StimGen::derive(
      verify::env_seed(7411),
      std::string("gate-native/") + variant + "/" + std::to_string(index));
}

// --- differential fuzz over lowered random designs (fallback dispatch) -----

class GateNativeFuzz : public ::testing::TestWithParam<unsigned> {};

void run_fuzz_case(const char* variant,
                   const verify::RandomModuleOptions& opt, unsigned index,
                   unsigned lanes, unsigned cycles) {
  const std::uint64_t seed = case_seed(variant, index);
  const Netlist nl = random_netlist(variant, opt, seed);
  // Corpus sweep on the interpreted fallback: no per-case compile cost.
  expect_matches_event(nl, seed, cycles, lanes, fallback());
}

TEST_P(GateNativeFuzz, MatchesEventEngine) {
  run_fuzz_case("base", {40, false, false, false}, GetParam(), 1, 100);
}

TEST_P(GateNativeFuzz, WithMemories) {
  run_fuzz_case("mem", {32, true, false, false}, GetParam(), 64, 40);
}

TEST_P(GateNativeFuzz, WithSharedMuxShapes) {
  run_fuzz_case("shared", {32, false, true, false}, GetParam(), 128, 24);
}

TEST_P(GateNativeFuzz, WithPolymorphicDispatch) {
  run_fuzz_case("poly", {32, false, false, true}, GetParam(), 256, 16);
}

/// Post-optimization netlists: the standard pipeline's output (rewritten,
/// retimed, techmapped) through the native engine against the oracles.
TEST_P(GateNativeFuzz, OptimizedNetlists) {
  const std::uint64_t seed = case_seed("opt", GetParam());
  const Netlist nl =
      random_netlist("opt", {32, true, false, false}, seed);
  opt::PipelineOptions popt;
  popt.self_check = 0;  // equivalence is what THIS test checks
  const Netlist optimized = opt::optimize(nl, popt);
  expect_matches_event(optimized, seed, 20, 192, fallback());
}

/// 64-lane scoring of a second corpus: every lane of the interpreted
/// fallback checked against its own event engine each cycle.
TEST_P(GateNativeFuzz, LaneScored) {
  run_fuzz_case("lanes", {32, true, false, false}, GetParam(), 64, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateNativeFuzz,
                         ::testing::Range(0u, verify::env_iters(8)));

// --- real compile + dlopen -------------------------------------------------

/// One random design through the actual JIT: emit, compile, dlopen, and
/// compare every lane against the event engine.  Asserts the native path
/// really loaded (this is what the -mavx2 CI leg runs).
TEST(GateNativeJit, CompilesAndMatchesEventEngine) {
  const std::uint64_t seed = case_seed("jit", 0);
  const Netlist nl = random_netlist("jit", {48, true, true, true}, seed);
  Simulator probe(nl, SimMode::kNative, 64);
  if (!jit_disabled()) {
    ASSERT_TRUE(probe.native().native()) << probe.native().compile_log();
  }
  expect_matches_event(nl, seed, 32, 64, {});
}

/// Wide SIMD lanes through the real JIT — 256 lanes = 4 words per net
/// through the store-only chunk drivers (v_and/v_nand/v_mux ...) and the
/// generated commit.
TEST(GateNativeJit, WideLanesCompileAndMatch) {
  const std::uint64_t seed = case_seed("jit-wide", 0);
  const Netlist nl = random_netlist("jit-wide", {40, true, false, false}, seed);
  expect_matches_event(nl, seed, 16, 256, {});
}

/// Memory semantics through the generated step(): same-cycle write-to-read
/// forwarding, reset clearing, poke_mem propagation — all against the
/// event engine on the same netlist — and a write that only its port's
/// dirty marks can make visible.
TEST(GateNativeJit, MemoryCommitMatchesEventEngine) {
  Builder b("m");
  Wire waddr = b.input("waddr", 2);
  Wire raddr = b.input("raddr", 2);
  Wire data = b.input("d", 8);
  Wire wen = b.input("wen", 1);
  rtl::MemHandle mem = b.memory("ram", 4, 8);
  b.mem_write(mem, waddr, data, wen);
  b.output("q", b.mem_read(mem, raddr));
  const Netlist nl = lower_to_gates(b.take());

  expect_matches_event(nl, case_seed("jit-mem", 0), 40, 128, {});

  Simulator ev(nl, SimMode::kEvent);
  Simulator nat(nl, SimMode::kNative, 128);
  ev.poke_mem(0, 1, Bits(8, 0xcd));
  nat.poke_mem(0, 1, Bits(8, 0xcd));
  ASSERT_EQ(nat.mem_word(0, 1).to_u64(), 0xcdu);
  ev.set_input("raddr", 1);
  nat.set_input("raddr", 1);
  ASSERT_EQ(ev.output("q").to_u64(), nat.output_lane("q", 127).to_u64());
  ev.reset();
  nat.reset();
  ASSERT_EQ(ev.output("q").to_u64(), nat.output("q").to_u64());
  ASSERT_EQ(nat.mem_word(0, 1).to_u64(), 0u);

  // A write that moves nothing else: the design has no register, so only
  // the write port's dirty marks wake the read level after the commit (the
  // per-lane write at one lane, the row sweep at 128).
  for (const unsigned lanes : {1u, 128u}) {
    Simulator w(nl, SimMode::kNative, lanes);
    w.set_input("waddr", 2);
    w.set_input("raddr", 2);
    w.set_input("d", 0x5a);
    w.set_input("wen", 1);
    w.step();
    EXPECT_EQ(w.output_lane("q", lanes - 1).to_u64(), 0x5au) << lanes;
  }
}

/// Deep memory through both lowerings of each memory helper, at every
/// lane-word class.  320 rows exceed 4x1 and 4x64 lanes (the generated
/// code's per-lane address decode) but not 4x128 or 4x192 (the one-hot row
/// sweep, at two and three lane words), and the interpreted fallback
/// decodes directly at 1 lane and through transposed address words at 256.
/// A second read port keeps one bit of the word, so its read group has one
/// tap.  The 9-bit address ports point past the depth about 3 times in 8
/// (such reads return 0 and such writes are dropped), and half the time
/// `again` reads back the row written the cycle before.  Every lane runs
/// its own addresses against its own event engine.
TEST(GateNativeJit, DeepMemoryMatchesEventEngine) {
  Builder b("deep");
  Wire waddr = b.input("waddr", 9);
  Wire raddr = b.input("raddr", 9);
  Wire taddr = b.input("taddr", 9);
  Wire again = b.input("again", 1);
  Wire data = b.input("d", 6);
  Wire wen = b.input("wen", 1);
  Wire last = b.reg("last_waddr", 9);
  b.connect(last, waddr);
  rtl::MemHandle mem = b.memory("ram", 320, 6);
  b.mem_write(mem, waddr, data, wen);
  b.output("q", b.mem_read(mem, b.mux(again, last, raddr)));
  b.output("t", b.bit(b.mem_read(mem, taddr), 4));
  const Netlist nl = lower_to_gates(b.take());

  const std::uint64_t seed = case_seed("jit-deep", 0);
  for (const unsigned lanes : {1u, 64u, 128u, 192u})
    expect_matches_event(nl, seed, 24, lanes, {});
  for (const unsigned lanes : {1u, 256u})
    expect_matches_event(nl, seed, 24, lanes, fallback());
}

// --- optimizer integration -------------------------------------------------

/// The optimization pipeline's differential self-check runs on the native
/// engine (its interpreted fallback by default), and the final result is
/// equivalent to the input under a mixed event-vs-native check of all 128
/// lanes.
TEST(GateNativeOpt, PipelineSelfChecksOnNativeEngine) {
  const std::uint64_t seed = case_seed("opt-pipeline", 0);
  const Netlist nl = random_netlist("opt-pipeline", {36, true, false, false},
                                    seed);
  opt::PipelineOptions popt;
  popt.self_check = 1;
  std::vector<opt::PassStats> stats;
  const Netlist optimized = opt::optimize(nl, popt, &stats);
  ASSERT_FALSE(stats.empty());
  for (const opt::PassStats& s : stats) EXPECT_TRUE(s.verified) << s.pass;

  EquivOptions eopt;
  eopt.sequences = 2;
  eopt.cycles = 32;
  eopt.mode_a = SimMode::kEvent;
  eopt.mode_b = SimMode::kNative;
  eopt.lanes = 128;
  const EquivResult r = check_equivalence(nl, optimized, eopt);
  EXPECT_TRUE(r) << r.counterexample;
}

/// The complementing kind of a 2-input gate (and2 <-> nand2, or2 <-> nor2,
/// xor2 <-> xnor2), or kConst0 for any other kind.
CellKind complement(CellKind k) {
  switch (k) {
    case CellKind::kAnd2: return CellKind::kNand2;
    case CellKind::kNand2: return CellKind::kAnd2;
    case CellKind::kOr2: return CellKind::kNor2;
    case CellKind::kNor2: return CellKind::kOr2;
    case CellKind::kXor2: return CellKind::kXnor2;
    case CellKind::kXnor2: return CellKind::kXor2;
    default: return CellKind::kConst0;
  }
}

/// Fault injection: a gate-kind flip on a live cell of an optimized
/// netlist must be observable through the native engine — guards against a
/// backend that decays to "always matches" (e.g. evaluating nothing).  The
/// netlist is the first of the corpus whose optimized form keeps a 2-input
/// gate (a random design can fold to constants).
TEST(GateNativeOpt, MutationsAreCaughtThroughNativeEngine) {
  opt::PipelineOptions popt;
  popt.self_check = 0;
  Netlist optimized("none");
  std::vector<NetId> targets;
  for (unsigned index = 0; targets.empty() && index < 8; ++index) {
    optimized = opt::optimize(
        random_netlist("mutation", {32, false, false, false},
                       case_seed("mutation", index)),
        popt);
    for (NetId id = 0; id < optimized.cells().size(); ++id)
      if (complement(optimized.cells()[id].kind) != CellKind::kConst0)
        targets.push_back(id);
  }
  ASSERT_FALSE(targets.empty());

  CodegenOptions copt;
  copt.force_fallback = true;
  unsigned caught = 0;
  const std::size_t budget = std::min<std::size_t>(targets.size(), 6);
  for (std::size_t i = 0; i < budget; ++i) {
    const NetId victim = targets[i * targets.size() / budget];
    Netlist mutant = optimized;
    mutant.mutate_cell(victim, complement(mutant.cells()[victim].kind));
    EquivOptions eopt;
    eopt.sequences = 2;
    eopt.cycles = 32;
    eopt.mode_a = SimMode::kEvent;
    eopt.mode_b = SimMode::kNative;
    eopt.lanes = 64;
    eopt.codegen = copt;
    if (!check_equivalence(optimized, mutant, eopt)) ++caught;
  }
  EXPECT_GT(caught, 0u) << "no kind-flip observable out of " << budget;
}

// --- fallback robustness ---------------------------------------------------

/// A compiler that cannot exist: the backend must fall back silently (no
/// throw), report why, and stay bit-identical to the interpreters.
TEST(GateNativeFallback, BogusCompilerFallsBackSilently) {
  const std::uint64_t seed = case_seed("bogus-cc", 0);
  const Netlist nl = random_netlist("bogus-cc", {36, true, false, false},
                                    seed);
  CodegenOptions opt;
  opt.compiler = "/nonexistent/osss-cc";
  Simulator probe(nl, SimMode::kNative, 128, opt);
  EXPECT_FALSE(probe.native().native());
  EXPECT_FALSE(probe.native().compile_log().empty());
  expect_matches_event(nl, seed, 24, 128, opt);
}

/// The backend owns a private temp directory for source/so/log and must
/// remove it when the engine dies — keeps ASan/LSan runs artifact-clean.
TEST(GateNativeFallback, TempDirIsCleanedUp) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("osss-gate-native-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  char* old_tmp = std::getenv("TMPDIR");
  const std::string saved = old_tmp != nullptr ? old_tmp : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  {
    Builder b("t");
    b.output("o", b.add(b.input("a", 8), b.input("b", 8)));
    Simulator sim(lower_to_gates(b.take()), SimMode::kNative, 64);
    sim.set_input("a", std::uint64_t{1});
    sim.set_input("b", std::uint64_t{2});
    sim.step();
    EXPECT_EQ(sim.output("o").to_u64(), 3u);
  }
  if (old_tmp != nullptr)
    ::setenv("TMPDIR", saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  EXPECT_TRUE(fs::is_empty(dir)) << "native backend left artifacts in "
                                 << dir;
  fs::remove_all(dir);
}

// --- shared jit object cache -----------------------------------------------

/// Two live engines over the same netlist at the same lane count share one
/// compiled object: the second construction is a cache hit, not a compile.
TEST(GateNativeCache, ConcurrentEnginesShareOneObject) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  Builder b("cachetgt");
  Wire a = b.input("a", 16);
  Wire q = b.reg("q", 16);
  b.connect(q, b.add(q, a));
  b.output("o", q);
  const Netlist nl = lower_to_gates(b.take());

  const jit::CacheStats before = jit::cache_stats();
  Simulator first(nl, SimMode::kNative, 64);
  ASSERT_TRUE(first.native().native()) << first.native().compile_log();
  const jit::CacheStats mid = jit::cache_stats();
  // Cold: one compile.  Under a warm $OSSS_JIT_CACHE_DIR the object loads
  // from disk instead — either way the compiler+disk total moves by one.
  EXPECT_EQ(mid.compiles + mid.disk_hits,
            before.compiles + before.disk_hits + 1);

  Simulator second(nl, SimMode::kNative, 64);  // first is still alive
  ASSERT_TRUE(second.native().native());
  const jit::CacheStats after = jit::cache_stats();
  EXPECT_EQ(after.compiles, mid.compiles) << "second engine recompiled";
  EXPECT_EQ(after.hits, mid.hits + 1);

  // Shared code, private state: the engines still step independently.
  first.set_input("a", std::uint64_t{3});
  second.set_input("a", std::uint64_t{5});
  first.step(4);
  second.step(2);
  EXPECT_EQ(first.output("o").to_u64(), 12u);
  EXPECT_EQ(second.output("o").to_u64(), 10u);
}

// --- generated source sanity ----------------------------------------------

TEST(GateNativeEmit, GeneratedSourceExportsTheGateAbi) {
  Builder b("emit");
  b.output("o", b.xor_(b.input("a", 8), b.input("b", 8)));
  const Netlist nl = lower_to_gates(b.take());
  const jit::Parts parts = emit_netlist_cpp(nl, 256);
  testutil::expect_parts_well_formed(parts, testutil::kGateAbi);
  // The step settles through the hidden settle body, a direct call; the
  // exported osss_gate_eval would be called through the PLT.
  const std::string& p0 = parts.front();
  EXPECT_NE(p0.find(jit::hidden_function() + std::string("void gate_eval(")),
            std::string::npos);
  const std::size_t step = p0.find("unsigned osss_gate_step(");
  ASSERT_NE(step, std::string::npos);
  const std::string body = p0.substr(step, p0.find("\n}\n", step) - step);
  EXPECT_NE(body.find("gate_eval(V, M, D);"), std::string::npos) << body;
  EXPECT_EQ(body.find("osss_gate_eval"), std::string::npos) << body;
}

TEST(GateNativeEmit, LaneValidation) {
  Builder b("v");
  b.output("o", b.not_(b.input("a", 4)));
  const Netlist nl = lower_to_gates(b.take());
  EXPECT_THROW(emit_netlist_cpp(nl, 65), std::invalid_argument);
  EXPECT_THROW(emit_netlist_cpp(nl, Simulator::kMaxLanes + 64),
               std::invalid_argument);
  EXPECT_THROW(Simulator(nl, SimMode::kNative, 65), std::invalid_argument);
  // The event engine carries one lane; explicit others are rejected.
  EXPECT_THROW(Simulator(nl, SimMode::kEvent, 64), std::invalid_argument);
  Simulator one(nl, SimMode::kEvent, 1);  // the implied value is fine
  EXPECT_EQ(one.lanes(), 1u);
  Simulator dflt(nl, SimMode::kNative, 0, fallback());  // 0 = 64 lanes
  EXPECT_EQ(dflt.lanes(), 64u);
}

// --- run_batch over wide native lanes --------------------------------------

/// The same stimulus through one-lane event-engine blocks and one 128-lane
/// native block must produce identical per-lane outputs.
TEST(GateNativeBatch, WideLaneBlocksMatchScalarBlocks) {
  const std::uint64_t seed = case_seed("batch", 0);
  const Netlist nl = random_netlist("batch", {28, false, false, false}, seed);
  constexpr unsigned kWide = 128, kCycles = 40;
  const unsigned lw = kWide / 64;
  std::mt19937_64 rng(seed);

  std::vector<unsigned> in_widths, out_widths;
  for (const Bus& bus : nl.inputs())
    in_widths.push_back(static_cast<unsigned>(bus.nets.size()));
  for (const Bus& bus : nl.outputs())
    out_widths.push_back(static_cast<unsigned>(bus.nets.size()));
  unsigned in_bits = 0, out_bits = 0;
  for (unsigned w : in_widths) in_bits += w;
  for (unsigned w : out_widths) out_bits += w;

  // Scalar reference: one one-lane block per lane on the event engine, and
  // one wide-lane native block carrying the same stimulus, both built bus
  // by bus from one value per lane (bit i of a bus at `lw` words per bit in
  // the wide block, at one word per bit in a one-lane block).
  std::vector<par::StimulusBlock> scalar(kWide);
  for (auto& blk : scalar) blk = par::StimulusBlock::make(kCycles, in_bits);
  par::StimulusBlock wide =
      par::StimulusBlock::make(kCycles, in_bits * lw, kWide);
  std::vector<std::uint64_t> values(kWide);
  for (unsigned c = 0; c < kCycles; ++c)
    for (unsigned s = 0, bit = 0; s < in_widths.size(); bit += in_widths[s++]) {
      for (unsigned l = 0; l < kWide; ++l) {
        values[l] = rng();
        par::values_to_lane_words(&values[l], 1, 1, in_widths[s],
                                  &scalar[l].in_at(c, bit));
      }
      par::values_to_lane_words(values.data(), 1, kWide, in_widths[s],
                                &wide.in_at(c, bit * lw));
    }
  run_batch(nl, SimMode::kEvent, scalar);
  std::vector<par::StimulusBlock> wide_batch;
  wide_batch.push_back(std::move(wide));
  run_batch(nl, SimMode::kNative, wide_batch);

  const par::StimulusBlock& w = wide_batch.front();
  ASSERT_EQ(w.out_slots, out_bits * lw);
  for (unsigned c = 0; c < kCycles; ++c)
    for (unsigned s = 0, bit = 0; s < out_widths.size();
         bit += out_widths[s++]) {
      par::lane_words_to_values(&w.out[c * w.out_slots + bit * lw], kWide,
                                out_widths[s], values.data(), 1);
      for (unsigned l = 0; l < kWide; ++l) {
        std::uint64_t want = 0;
        par::lane_words_to_values(&scalar[l].out[c * scalar[l].out_slots + bit],
                                  1, out_widths[s], &want, 1);
        ASSERT_EQ(values[l], want)
            << "cycle " << c << " output " << s << " lane " << l;
      }
    }
}

/// A batch split into many chunks across pool workers still costs at most
/// one compile: every pooled engine shares the cached object, and chunks
/// recycle engines via restore_poweron instead of rebuilding them.  Every
/// lane of every block is checked against a scalar event-engine block to
/// prove the recycled engines are bit-identical to fresh ones.
TEST(GateNativeBatch, ManyChunksShareOneCompile) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  Builder b("batchonce");
  Wire a = b.input("a", 12);
  Wire q = b.reg("q", 12);
  b.connect(q, b.add(q, b.xor_(a, q)));
  b.output("o", q);
  const Netlist nl = lower_to_gates(b.take());

  constexpr unsigned kBlocks = 16, kCycles = 12;
  std::mt19937_64 rng(0x9a7fULL);
  std::vector<par::StimulusBlock> blocks(kBlocks);
  for (auto& blk : blocks) {
    blk = par::StimulusBlock::make(kCycles, 12, 64);
    for (auto& w : blk.in) w = rng();
  }

  par::Pool pool(4);
  const jit::CacheStats before = jit::cache_stats();
  run_batch(nl, SimMode::kNative, blocks, &pool);
  const jit::CacheStats after = jit::cache_stats();
  EXPECT_LE(after.compiles - before.compiles, 1u)
      << "run_batch must reuse one compiled object across all chunks";

  // Scalar reference: one one-lane event-engine block per (block, lane),
  // bit i of lane l at slot i (the lane word shifted down to lane l).
  std::vector<par::StimulusBlock> scalar(kBlocks * 64);
  for (par::StimulusBlock& s : scalar)
    s = par::StimulusBlock::make(kCycles, 12);
  for (unsigned i = 0; i < kBlocks; ++i)
    for (unsigned c = 0; c < kCycles; ++c)
      for (unsigned l = 0; l < 64; ++l)
        for (unsigned bit = 0; bit < 12; ++bit)
          scalar[i * 64 + l].in_at(c, bit) = blocks[i].in_at(c, bit) >> l;
  run_batch(nl, SimMode::kEvent, scalar, &pool);
  for (unsigned i = 0; i < kBlocks; ++i)
    for (unsigned c = 0; c < kCycles; ++c)
      for (unsigned l = 0; l < 64; ++l)
        for (unsigned bit = 0; bit < 12; ++bit)
          ASSERT_EQ((blocks[i].out_at(c, bit) >> l) & 1,
                    scalar[i * 64 + l].out_at(c, bit))
              << "block " << i << " lane " << l << " cycle " << c << " bit "
              << bit;
}

TEST(GateNativeBatch, LaneValidation) {
  Builder b("v");
  b.output("o", b.not_(b.input("a", 4)));
  const Netlist nl = lower_to_gates(b.take());
  std::vector<par::StimulusBlock> blocks;
  blocks.push_back(par::StimulusBlock::make(1, 4 * 2, 128));
  // Lane blocks need the native backend.
  EXPECT_THROW(run_batch(nl, SimMode::kEvent, blocks),
               std::invalid_argument);
  blocks.front().lanes = 65;
  EXPECT_THROW(run_batch(nl, SimMode::kNative, blocks),
               std::invalid_argument);
}

// --- value-per-lane I/O ----------------------------------------------------

/// set_input_values/output_values (one value per lane, transposed by
/// par::values_to_lane_words / lane_words_to_values) must agree with the
/// bit-sliced set_input_lanes/output_words path driven through a per-bit
/// reference transpose, for bus widths 1..64 at 1, 64, 256 and 512 lanes.
/// Input values carry random bits above the bus width, which must be
/// ignored.
TEST(GateNativeValues, ValueApiMatchesBitSlicedApi) {
  CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned width : {1u, 8u, 12u, 33u, 64u}) {
    Builder b("vals");
    Wire a = b.input("a", width);
    Wire q = b.reg("q", width);
    b.connect(q, b.add(q, a));
    b.output("o", b.xor_(q, a));
    const Netlist nl = lower_to_gates(b.take());
    const std::uint64_t mask =
        width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;

    for (const unsigned lanes : {1u, 64u, 256u, 512u}) {
      SCOPED_TRACE(::testing::Message() << "width " << width << " lanes "
                                        << lanes);
      const unsigned lw = (lanes + 63) / 64;
      Simulator byvalue(nl, SimMode::kNative, lanes, fb);
      Simulator bitsliced(nl, SimMode::kNative, lanes, fb);

      std::mt19937_64 rng(1234 + lanes + width);
      std::vector<std::uint64_t> values(lanes);
      std::vector<std::uint64_t> bit_lanes(std::size_t{width} * lw);
      for (unsigned c = 0; c < 50; ++c) {
        for (unsigned l = 0; l < lanes; ++l) values[l] = rng();
        std::fill(bit_lanes.begin(), bit_lanes.end(), 0);
        for (unsigned l = 0; l < lanes; ++l)
          for (unsigned bit = 0; bit < width; ++bit)
            bit_lanes[std::size_t{bit} * lw + l / 64] |=
                ((values[l] >> bit) & 1u) << (l % 64);
        bitsliced.set_input_lanes("a", bit_lanes);
        bitsliced.step();
        byvalue.set_input_values("a", values);
        byvalue.step();
        const std::vector<std::uint64_t> ref_words =
            bitsliced.output_words("o");
        ASSERT_EQ(byvalue.output_words("o"), ref_words) << "cycle " << c;
        const std::vector<std::uint64_t> vals = byvalue.output_values("o");
        ASSERT_EQ(vals.size(), lanes);
        for (unsigned l = 0; l < lanes; ++l) {
          std::uint64_t expected = 0;
          for (unsigned bit = 0; bit < width; ++bit)
            expected |=
                ((ref_words[std::size_t{bit} * lw + l / 64] >> (l % 64)) &
                 1u)
                << bit;
          ASSERT_EQ(vals[l], expected) << "cycle " << c << " lane " << l;
          ASSERT_EQ(vals[l] & ~mask, 0u) << "cycle " << c << " lane " << l;
        }
      }
    }
  }
}

TEST(GateNativeValues, RequiresNativeModeAndMatchingLaneCount) {
  Builder b("v");
  b.output("o", b.not_(b.input("a", 4)));
  const Netlist nl = lower_to_gates(b.take());
  Simulator event(nl, SimMode::kEvent);
  std::vector<std::uint64_t> vals(64, 0);
  EXPECT_THROW(event.set_input_values("a", vals), std::logic_error);
  EXPECT_THROW(event.output_values("o"), std::logic_error);
  Simulator nat(nl, SimMode::kNative, 128, fallback());
  EXPECT_THROW(nat.set_input_values("a", vals), std::logic_error);
}

}  // namespace
}  // namespace osss::gate
