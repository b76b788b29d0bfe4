// native_test.cpp — differential tests for the tape native-code backend.
//
// Three-way checks (interpreter oracle vs kTape's lane switch vs kNative)
// over the random_module fuzz corpus and both design flows' ExpoCU
// components.  The fuzz sweep runs the threaded-code fallback (no compile
// cost per case); a subset plus the ExpoCU components exercise the real
// compile + dlopen path.  A bogus-compiler test proves the silent fallback
// keeps results bit-identical, and a temp-dir fixture proves the backend
// leaves nothing behind on disk.

#include "rtl/codegen.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>

#include "../testutil.hpp"
#include "expocu/flows.hpp"
#include "par/batch.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::rtl {
namespace {

namespace tp = tape;

/// True when the environment disables the JIT (e.g. the TSan CI job, which
/// cannot instrument dlopen'd code) — real-compile assertions are skipped.
bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Interpreter (the reference, one per lane) vs kTape's lane switch vs
/// kNative, two sequences, every lane scored.  kTape stops at 64 lanes, so
/// a wider run checks it at 64 in a co-sim of its own.
void expect_three_way_match(const Module& m, std::uint64_t seed,
                            unsigned cycles, unsigned lanes,
                            tp::CodegenOptions opt) {
  auto tape = std::make_unique<verify::RtlModel>(m, SimMode::kTape,
                                                 std::min(lanes, 64u));
  auto native = std::make_unique<verify::RtlModel>(
      m, SimMode::kNative, lanes, std::move(opt), "rtl:native");
  const auto check = [&](std::vector<std::unique_ptr<verify::Model>> duts) {
    testutil::expect_lanes_match(m, testutil::interp(m), std::move(duts),
                                 seed, cycles, 2);
  };
  if (lanes > 64) {
    check(testutil::models(std::move(tape)));
    check(testutil::models(std::move(native)));
  } else {
    check(testutil::models(std::move(tape), std::move(native)));
  }
}

// --- differential fuzz over random_module shapes (fallback dispatch) -------

class NativeFuzz : public ::testing::TestWithParam<unsigned> {};

void run_fuzz_case(const char* variant,
                   const verify::RandomModuleOptions& opt, unsigned index,
                   unsigned lanes, unsigned cycles) {
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(7301),
      std::string("native/") + variant + "/" + std::to_string(index));
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(rng, opt);
  tp::CodegenOptions copt;
  copt.force_fallback = true;  // corpus sweep: no per-case compile cost
  expect_three_way_match(m, seed, cycles, lanes, std::move(copt));
}

TEST_P(NativeFuzz, MatchesInterpreter) {
  run_fuzz_case("base", {40, false, false, false}, GetParam(), 1, 100);
}

TEST_P(NativeFuzz, WithMemories) {
  run_fuzz_case("mem", {32, true, false, false}, GetParam(), 1, 100);
}

TEST_P(NativeFuzz, WithSharedMuxShapes) {
  run_fuzz_case("shared", {32, false, true, false}, GetParam(), 1, 100);
}

TEST_P(NativeFuzz, WithPolymorphicDispatch) {
  run_fuzz_case("poly", {32, false, false, true}, GetParam(), 1, 100);
}

TEST_P(NativeFuzz, WithEverything) {
  run_fuzz_case("all", {48, true, true, true}, GetParam(), 1, 100);
}

/// 64 lanes: every lane of the interpreted tape and the threaded handlers
/// against its own interpreter.
TEST_P(NativeFuzz, SixtyFourLanes) {
  run_fuzz_case("lanes64", {32, true, false, false}, GetParam(), 64, 40);
}

/// Wider than kTape's cap: all 256 lanes of the threaded handlers are
/// scored, which exercises the multi-word enable masks in step().
TEST_P(NativeFuzz, WideLanes) {
  run_fuzz_case("lanes256", {32, true, false, false}, GetParam(), 256, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeFuzz,
                         ::testing::Range(0u, verify::env_iters(8)));

// --- real compile + dlopen -------------------------------------------------

/// One random shape through the actual JIT: emit, compile, dlopen, and
/// compare against both interpreters.  Asserts the native path really
/// loaded (this is what the -mavx2 CI leg runs).
TEST(NativeJit, CompilesAndMatchesInterpreter) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/jit");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{48, true, true, true});
  Simulator probe(m, SimMode::kNative, 8);
  if (!jit_disabled()) {
    ASSERT_TRUE(probe.native().native()) << probe.native().compile_log();
  }
  expect_three_way_match(m, seed, 120, 8, {});
}

/// Wide SIMD lanes through the real JIT (AVX2/AVX-512 vector drivers when
/// the CPU has them; the scalar tail otherwise).
TEST(NativeJit, WideLanesCompileAndMatch) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/jit-wide");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{40, true, false, false});
  expect_three_way_match(m, seed, 24, 192, {});
}

/// Both flows' ExpoCU components through the real JIT, three-way checked.
/// One compile per component; the OSSS flow and the hand-written VHDL flow
/// cover the same six components from different RTL.
TEST(NativeJit, ExpoCuComponentsBothFlows) {
  for (const bool osss : {true, false}) {
    const std::vector<expocu::FlowComponent> flow =
        osss ? expocu::build_osss_flow() : expocu::build_vhdl_flow();
    for (const expocu::FlowComponent& c : flow) {
      const std::uint64_t seed = verify::StimGen::derive(
          verify::env_seed(7301),
          std::string("native/expocu/") + (osss ? "osss/" : "vhdl/") + c.name);
      SCOPED_TRACE((osss ? "osss flow: " : "vhdl flow: ") + c.name);
      expect_three_way_match(c.module, seed, 150, 4, {});
    }
  }
}

// --- fallback robustness ---------------------------------------------------

/// A compiler that cannot exist: the backend must fall back silently (no
/// throw), report why, and stay bit-identical to the interpreter.
TEST(NativeFallback, BogusCompilerFallsBackSilently) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/bogus-cc");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{36, true, false, false});
  tp::CodegenOptions opt;
  opt.compiler = "/nonexistent/osss-cc";
  Simulator probe(m, SimMode::kNative, 4, opt);
  EXPECT_FALSE(probe.native().native());
  EXPECT_FALSE(probe.native().compile_log().empty());
  expect_three_way_match(m, seed, 100, 4, opt);
}

/// force_fallback (the OSSS_NO_JIT path) never touches the filesystem.
TEST(NativeFallback, ForcedFallbackMatchesJitResults) {
  Builder b("acc");
  Wire a = b.input("a", 32);
  Wire q = b.reg("q", 32);
  b.connect(q, b.add(q, a));
  b.output("o", q);
  const Module m = b.take();

  tp::CodegenOptions forced;
  forced.force_fallback = true;
  Simulator jit(m, SimMode::kNative, 2);
  Simulator fb(m, SimMode::kNative, 2, forced);
  EXPECT_FALSE(fb.native().native());
  const InputHandle ia = jit.input_handle("a");
  const OutputHandle oo = jit.output_handle("o");
  std::mt19937_64 rng(99);
  for (unsigned c = 0; c < 200; ++c) {
    const std::uint64_t v = rng();
    jit.set_input(ia, v);
    fb.set_input(fb.input_handle("a"), v);
    jit.step();
    fb.step();
    ASSERT_EQ(jit.output_u64(oo), fb.output_u64(fb.output_handle("o")))
        << "cycle " << c;
  }
}

/// The backend owns a private temp directory for source/so/log and must
/// remove it when the engine dies — keeps ASan/LSan runs artifact-clean.
TEST(NativeFallback, TempDirIsCleanedUp) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("osss-native-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  char* old_tmp = std::getenv("TMPDIR");
  const std::string saved = old_tmp != nullptr ? old_tmp : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  {
    Builder b("t");
    b.output("o", b.add(b.input("a", 16), b.input("b", 16)));
    Simulator sim(b.take(), SimMode::kNative, 1);
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

// --- generated source sanity ----------------------------------------------

TEST(NativeEmit, GeneratedSourceExportsTheTapeAbi) {
  Builder b("emit");
  Wire a = b.input("a", 8);
  Wire c = b.input("b", 8);
  b.output("o", b.xor_(a, c));
  const tp::Program p = tp::Program::compile(b.take(), 4);
  testutil::expect_parts_well_formed(tp::emit_cpp(p), testutil::kTapeAbi);
}

/// Each instruction wider than one word is one call back into the engine
/// (the threaded handler runs it); the single-word ones stay compiled.
TEST(NativeEmit, WideInstructionsCallTheEngine) {
  Builder b("wide");
  Wire a = b.input("a", 80);
  Wire n = b.input("n", 8);
  const MemHandle mem = b.memory("m", 4, 100);
  b.mem_write(mem, b.slice(n, 1, 0), b.zext(a, 100), b.bit(n, 7));
  b.output("sum", b.add(a, a));                       // kAddN
  b.output("cat", b.concat({n, a}));                  // 88-bit kConcat
  b.output("rd", b.mem_read(mem, b.slice(n, 3, 2)));  // 100-bit kMemRead
  b.output("sh", b.shlv(n, a));                       // 80-bit amount
  b.output("lo", b.add(n, n));                        // kAdd1
  const tp::Program p = tp::Program::compile(b.take(), 4);
  const jit::Parts parts = tp::emit_cpp(p);
  testutil::expect_parts_well_formed(parts, testutil::kTapeAbi);
  std::size_t calls = 0, adds = 0;
  for (const std::string& src : parts) {
    for (std::size_t at = src.find("X(C, "); at != std::string::npos;
         at = src.find("X(C, ", at + 1))
      ++calls;
    adds += src.find("v_bin<4, OpAdd>") != std::string::npos;
  }
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(adds, 1u);
}

// --- run_batch over wide native lanes --------------------------------------

/// The same stimulus through one-lane interpreter blocks and one 128-lane
/// native block must produce identical per-lane outputs.
TEST(NativeBatch, WideLaneBlocksMatchScalarBlocks) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/batch");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{30, false, false, false});
  constexpr unsigned kLanes = 128, kCycles = 40;
  const unsigned lw = kLanes / 64;

  std::vector<unsigned> in_widths, out_widths;
  for (const PortRef& p : m.inputs()) in_widths.push_back(m.node(p.node).width);
  for (const PortRef& p : m.outputs())
    out_widths.push_back(m.node(p.node).width);
  unsigned in_bits = 0, out_bits = 0;
  for (unsigned w : in_widths) in_bits += w;
  for (unsigned w : out_widths) out_bits += w;

  // Scalar reference: one one-lane block per lane, and one wide-lane native
  // block carrying the same stimulus, both built port by port from one
  // value per lane (bit i of a port at `lw` words per bit in the wide
  // block, at one word per bit in a one-lane block).
  std::vector<par::StimulusBlock> scalar(kLanes);
  for (auto& b : scalar) b = par::StimulusBlock::make(kCycles, in_bits);
  par::StimulusBlock wide =
      par::StimulusBlock::make(kCycles, in_bits * lw, kLanes);
  std::vector<std::uint64_t> values(kLanes);
  for (unsigned c = 0; c < kCycles; ++c)
    for (unsigned s = 0, bit = 0; s < in_widths.size(); bit += in_widths[s++]) {
      for (unsigned l = 0; l < kLanes; ++l) {
        values[l] = rng();
        par::values_to_lane_words(&values[l], 1, 1, in_widths[s],
                                  &scalar[l].in_at(c, bit));
      }
      par::values_to_lane_words(values.data(), 1, kLanes, in_widths[s],
                                &wide.in_at(c, bit * lw));
    }
  run_batch(m, SimMode::kInterp, scalar);
  std::vector<par::StimulusBlock> wide_batch;
  wide_batch.push_back(std::move(wide));
  run_batch(m, SimMode::kNative, wide_batch);

  const par::StimulusBlock& w = wide_batch.front();
  ASSERT_EQ(w.out_slots, out_bits * lw);
  for (unsigned c = 0; c < kCycles; ++c)
    for (unsigned s = 0, bit = 0; s < out_widths.size();
         bit += out_widths[s++]) {
      par::lane_words_to_values(&w.out[c * w.out_slots + bit * lw], kLanes,
                                out_widths[s], values.data(), 1);
      for (unsigned l = 0; l < kLanes; ++l) {
        std::uint64_t want = 0;
        par::lane_words_to_values(&scalar[l].out[c * scalar[l].out_slots + bit],
                                  1, out_widths[s], &want, 1);
        ASSERT_EQ(values[l], want)
            << "cycle " << c << " output " << s << " lane " << l;
      }
    }
}

// --- value-per-lane I/O ----------------------------------------------------

/// set_input_values/output_values (one value per lane, no bit transpose)
/// must agree with the bit-sliced set_input_lanes/output_words path (which
/// transposes through par::lane_words_to_values / values_to_lane_words)
/// on both engines, for port widths 1..64 at 2 and 64 lanes (tape + native)
/// and 200 and 512 lanes (native only).  Input values carry random bits
/// above the port width, which set_input_values truncates.
TEST(NativeLaneValues, ValueApiMatchesBitSlicedApi) {
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned width : {1u, 8u, 16u, 33u, 64u}) {
    Builder b("vals");
    Wire a = b.input("a", width);
    Wire q = b.reg("q", width);
    b.connect(q, b.add(q, a));
    b.output("o", b.xor_(q, a));
    const Module m = b.take();
    const std::uint64_t mask =
        width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;

    for (const unsigned lanes : {2u, 64u, 200u, 512u}) {
      SCOPED_TRACE(::testing::Message() << "width " << width << " lanes "
                                        << lanes);
      const unsigned lw = (lanes + 63) / 64;
      std::vector<std::unique_ptr<Simulator>> sims;
      sims.push_back(
          std::make_unique<Simulator>(m, SimMode::kNative, lanes, fb));
      if (lanes <= 64)
        sims.push_back(std::make_unique<Simulator>(m, SimMode::kTape, lanes));
      Simulator bitsliced(m, SimMode::kNative, lanes, fb);

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
        bitsliced.set_input_lanes(bitsliced.input_handle("a"), bit_lanes);
        bitsliced.step();
        const std::vector<std::uint64_t> ref_words =
            bitsliced.output_words(bitsliced.output_handle("o"));
        for (auto& sim : sims) {
          sim->set_input_values(sim->input_handle("a"), values);
          sim->step();
          ASSERT_EQ(sim->output_words(sim->output_handle("o")), ref_words)
              << "cycle " << c;
          const std::vector<std::uint64_t> vals =
              sim->output_values(sim->output_handle("o"));
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
}

/// Ports wider than one word reject the value API, and lane reads past
/// lanes() throw instead of reading another slot.
TEST(NativeLaneValues, WidePortsThrow) {
  Builder b("wide");
  b.output("o", b.not_(b.input("a", 80)));
  const Module m = b.take();
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  Simulator sim(m, SimMode::kNative, 2, fb);
  std::vector<std::uint64_t> values(2, 0);
  EXPECT_THROW(sim.set_input_values(sim.input_handle("a"), values),
               std::logic_error);
  EXPECT_THROW(sim.output_values(sim.output_handle("o")), std::logic_error);
  // Lanes past lanes() are rejected on every mode, not read from the arena,
  // and by the engine itself, reached through sim.native().
  EXPECT_THROW(sim.output_lane(sim.output_handle("o"), sim.lanes()),
               std::logic_error);
  EXPECT_THROW(sim.get(m.outputs()[0].node, sim.lanes()), std::logic_error);
  EXPECT_THROW(sim.native().output(0, sim.lanes()), std::logic_error);
  EXPECT_THROW(sim.native().node_value(m.outputs()[0].node, sim.lanes()),
               std::logic_error);
  for (const SimMode mode : {SimMode::kInterp, SimMode::kTape}) {
    Simulator other(m, mode, mode == SimMode::kInterp ? 1 : 2);
    EXPECT_THROW(other.output_lane(other.output_handle("o"), other.lanes()),
                 std::logic_error);
    EXPECT_THROW(other.get(m.outputs()[0].node, other.lanes()),
                 std::logic_error);
  }
  // Lane-count mismatches are rejected too.
  Builder b2("ok16");
  b2.output("o", b2.not_(b2.input("a", 16)));
  Simulator s16(b2.take(), SimMode::kNative, 2, fb);
  EXPECT_THROW(
      s16.set_input_values(s16.input_handle("a"),
                           std::vector<std::uint64_t>{1, 2, 3}),
      std::logic_error);
}

/// Lane-count validation: 65 is not a lane-word multiple, wide blocks need
/// the native backend, and kTape stays capped at 64.
TEST(NativeBatch, LaneValidation) {
  Builder b("v");
  b.output("o", b.not_(b.input("a", 4)));
  const Module m = b.take();
  EXPECT_THROW(Simulator(m, SimMode::kNative, tp::kMaxLanes + 1),
               std::logic_error);
  std::vector<par::StimulusBlock> blocks;
  blocks.push_back(par::StimulusBlock::make(1, 4 * 2, 128));
  EXPECT_THROW(run_batch(m, SimMode::kTape, blocks), std::invalid_argument);
  blocks.front().lanes = 65;
  EXPECT_THROW(run_batch(m, SimMode::kNative, blocks),
               std::invalid_argument);
}

}  // namespace
}  // namespace osss::rtl
