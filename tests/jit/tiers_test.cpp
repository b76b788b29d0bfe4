// tiers_test.cpp — the generated code at every lane-vector width.
//
// The JIT prelude picks its lane-vector width once per generated file
// from __AVX512F__ / __AVX2__, and the cpu-probed default flags enable
// the widest tier the host has, so on an AVX-512 host the other native
// suites never compile the AVX2 or the one-word tier.  NativeTiers turns
// the tiers off one at a time through CodegenOptions::extra_flags and
// co-simulates every lane of the ExpoCU histogram and threshold (RTL and
// gate level) and a random module against the oracles: the RTL
// interpreter and the gate event engine, one per lane
// (verify::ReplicaModel).  Every compile must load and be silent (no
// -Wpsabi notes), and the emitted sources include nothing but <cstdint>
// and name no intrinsics.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "expocu/hw.hpp"
#include "gate/codegen.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "hls/synth.hpp"
#include "jit/jit.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss {
namespace {

/// The vector tiers: the host's widest, AVX2 at most, and one word.
const char* const kTierFlags[] = {"", "-mno-avx512f",
                                  "-mno-avx2 -mno-avx512f"};
constexpr unsigned kCycles = 40;

/// The NativeJit.CompilesAndMatchesInterpreter shape: every operator
/// family, a memory, shared-mux and tag-dispatch structure.
rtl::Module random_design() {
  std::mt19937_64 rng(
      verify::StimGen::derive(verify::env_seed(7301), "native/jit"));
  return verify::random_module(
      rng, verify::RandomModuleOptions{48, true, true, true});
}

rtl::Module design(const std::string& name) {
  if (name == "histogram") return expocu::build_histogram_rtl();
  if (name == "threshold")
    return hls::synthesize(expocu::build_threshold_osss());
  return random_design();
}

struct Case {
  std::string design;  ///< histogram / threshold / random
  bool gate;           ///< gate level (lowered) instead of RTL
  unsigned lanes;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.gate ? "gate " : "rtl ") << c.design << " x" << c.lanes;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.gate ? "gate_" : "rtl_") +
         info.param.design + "_" + std::to_string(info.param.lanes);
}

class NativeTiers : public ::testing::TestWithParam<Case> {};

/// One design at one lane count: one co-simulation scores each tier's
/// native engine against one oracle per lane.
TEST_P(NativeTiers, EveryLaneMatchesTheOracle) {
  if (jit::jit_disabled_by_env()) GTEST_SKIP() << "OSSS_NO_JIT set";
#if !defined(__x86_64__)
  GTEST_SKIP() << "the tier flags are x86 options";
#endif
  const Case& tc = GetParam();
  const rtl::Module m = design(tc.design);
  const gate::Netlist nl = gate::lower_to_gates(m);
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(7301), "native-tiers/" + case_name({tc, 0}));

  std::vector<std::unique_ptr<verify::Model>> tiers;
  for (const char* flags : kTierFlags) {
    SCOPED_TRACE(std::string("extra_flags \"") + flags + "\"");
    const std::string name = std::string("native[") + flags + "]";
    bool loaded;
    std::string log;
    if (tc.gate) {
      gate::CodegenOptions opt;
      opt.extra_flags = flags;
      auto g = std::make_unique<verify::GateModel>(nl, gate::SimMode::kNative,
                                                   tc.lanes, opt, name);
      loaded = g->sim().native().native();
      log = g->sim().native().compile_log();
      tiers.push_back(std::move(g));
    } else {
      rtl::tape::CodegenOptions opt;
      opt.extra_flags = flags;
      auto r = std::make_unique<verify::RtlModel>(m, rtl::SimMode::kNative,
                                                  tc.lanes, opt, name);
      loaded = r->sim().native().native();
      log = r->sim().native().compile_log();
      tiers.push_back(std::move(r));
    }
    ASSERT_TRUE(loaded) << log;
    EXPECT_EQ(log, "");
  }
  if (tc.gate)
    testutil::expect_lanes_match(nl, testutil::event(nl), std::move(tiers),
                                 seed, kCycles);
  else
    testutil::expect_lanes_match(m, testutil::interp(m), std::move(tiers),
                                 seed, kCycles);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const bool gate : {false, true})
    for (const char* d : {"histogram", "threshold", "random"})
      for (const unsigned lanes : {64u, 256u, 512u})
        cases.push_back({d, gate, lanes});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Designs, NativeTiers,
                         ::testing::ValuesIn(all_cases()), case_name);

/// Every emitted part includes <cstdint> and nothing else and names no
/// intrinsic or intrinsic vector type, the ABI symbols sit in one part and
/// the level chunks are hidden, at every lane count.
TEST(NativeTiersSource, IncludesOnlyCstdintAndNoIntrinsics) {
  std::vector<std::pair<std::function<jit::Parts(unsigned)>,
                        const std::vector<std::string>*>>
      emitters;
  for (const char* d : {"histogram", "threshold", "random"}) {
    const rtl::Module m = design(d);
    emitters.emplace_back(
        [m](unsigned lanes) {
          return rtl::tape::emit_cpp(rtl::tape::Program::compile(m, lanes));
        },
        &testutil::kTapeAbi);
    emitters.emplace_back(
        [nl = gate::lower_to_gates(m)](unsigned lanes) {
          return gate::emit_netlist_cpp(nl, lanes);
        },
        &testutil::kGateAbi);
  }
  for (const auto& [emit, abi] : emitters)
    for (const unsigned lanes : {1u, 64u, 256u, 512u}) {
      const jit::Parts parts = emit(lanes);
      EXPECT_GE(parts.size(), 2u) << "no level chunk part";
      testutil::expect_parts_well_formed(parts, *abi);
    }
}

}  // namespace
}  // namespace osss
