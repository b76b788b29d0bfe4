// tiers_test.cpp — the generated code at every lane-vector width.
//
// The JIT prelude picks its lane-vector width once per generated file
// from __AVX512F__ / __AVX2__, and the cpu-probed default flags enable
// the widest tier the host has, so on an AVX-512 host the other native
// suites never compile the AVX2 or the one-word tier.  NativeTiers turns
// the tiers off one at a time through CodegenOptions::extra_flags and
// checks every lane of the ExpoCU histogram and threshold (RTL and gate
// level) and a random module against the oracles: the RTL interpreter
// and the gate event engine, one scalar run per lane.  Every compile must
// load and be silent (no -Wpsabi notes), and the emitted sources include
// nothing but <cstdint> and name no intrinsics.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "expocu/hw.hpp"
#include "gate/codegen.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "hls/synth.hpp"
#include "jit/jit.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"
#include "sysc/bits.hpp"
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

/// stim[c][i][l]: value of input i in cycle c on lane l, masked to the
/// port width.
using Stimulus = std::vector<std::vector<std::vector<std::uint64_t>>>;

Stimulus make_stimulus(const std::vector<unsigned>& widths, unsigned lanes,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Stimulus st(kCycles, std::vector<std::vector<std::uint64_t>>(
                           widths.size(), std::vector<std::uint64_t>(lanes)));
  for (auto& cycle : st)
    for (std::size_t i = 0; i < widths.size(); ++i)
      for (std::uint64_t& v : cycle[i])
        v = rng() & (widths[i] >= 64 ? ~0ull : (1ull << widths[i]) - 1);
  return st;
}

/// expected[l][c][o]: output o after cycle c of lane l's scalar oracle run.
using Trace = std::vector<std::vector<std::vector<sysc::Bits>>>;

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

/// One design at one lane count: the oracle runs every lane once, then
/// each tier's native engine runs all lanes at once and must match.
TEST_P(NativeTiers, EveryLaneMatchesTheOracle) {
  if (jit::jit_disabled_by_env()) GTEST_SKIP() << "OSSS_NO_JIT set";
#if !defined(__x86_64__)
  GTEST_SKIP() << "the tier flags are x86 options";
#endif
  const Case& tc = GetParam();
  const rtl::Module m = design(tc.design);
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(7301), "native-tiers/" + case_name({tc, 0}));

  std::vector<std::string> ins, outs;
  std::vector<unsigned> in_widths;
  for (const rtl::PortRef& p : m.inputs()) {
    ins.push_back(p.name);
    in_widths.push_back(m.node(p.node).width);
  }
  for (const rtl::PortRef& p : m.outputs()) outs.push_back(p.name);
  const Stimulus st = make_stimulus(in_widths, tc.lanes, seed);

  Trace expected(tc.lanes);
  if (tc.gate) {
    const gate::Netlist nl = gate::lower_to_gates(m);
    for (unsigned l = 0; l < tc.lanes; ++l) {
      gate::Simulator ref(nl, gate::SimMode::kEvent);
      for (unsigned c = 0; c < kCycles; ++c) {
        for (std::size_t i = 0; i < ins.size(); ++i)
          ref.set_input(ins[i], st[c][i][l]);
        ref.step();
        auto& row = expected[l].emplace_back();
        for (const std::string& o : outs) row.push_back(ref.output(o));
      }
    }
    for (const char* flags : kTierFlags) {
      SCOPED_TRACE(std::string("extra_flags \"") + flags + "\"");
      gate::CodegenOptions opt;
      opt.extra_flags = flags;
      gate::Simulator sim(nl, gate::SimMode::kNative, tc.lanes, opt);
      ASSERT_TRUE(sim.native().native()) << sim.native().compile_log();
      EXPECT_EQ(sim.native().compile_log(), "");
      for (unsigned c = 0; c < kCycles; ++c) {
        for (std::size_t i = 0; i < ins.size(); ++i)
          sim.set_input_values(ins[i], st[c][i]);
        sim.step();
        for (std::size_t o = 0; o < outs.size(); ++o)
          for (unsigned l = 0; l < tc.lanes; ++l)
            ASSERT_EQ(sim.output_lane(outs[o], l), expected[l][c][o])
                << "cycle " << c << " output " << outs[o] << " lane " << l;
      }
    }
    return;
  }

  for (unsigned l = 0; l < tc.lanes; ++l) {
    rtl::Simulator ref(m, rtl::SimMode::kInterp);
    for (unsigned c = 0; c < kCycles; ++c) {
      for (std::size_t i = 0; i < ins.size(); ++i)
        ref.set_input(ins[i], st[c][i][l]);
      ref.step();
      auto& row = expected[l].emplace_back();
      for (const std::string& o : outs) row.push_back(ref.output(o));
    }
  }
  for (const char* flags : kTierFlags) {
    SCOPED_TRACE(std::string("extra_flags \"") + flags + "\"");
    rtl::tape::CodegenOptions opt;
    opt.extra_flags = flags;
    rtl::Simulator sim(m, rtl::SimMode::kNative, tc.lanes, opt);
    ASSERT_TRUE(sim.native().native()) << sim.native().compile_log();
    EXPECT_EQ(sim.native().compile_log(), "");
    for (unsigned c = 0; c < kCycles; ++c) {
      for (std::size_t i = 0; i < ins.size(); ++i)
        sim.set_input_values(sim.input_handle(ins[i]), st[c][i]);
      sim.step();
      for (std::size_t o = 0; o < outs.size(); ++o)
        for (unsigned l = 0; l < tc.lanes; ++l)
          ASSERT_EQ(sim.output_lane(sim.output_handle(outs[o]), l),
                    expected[l][c][o])
              << "cycle " << c << " output " << outs[o] << " lane " << l;
    }
  }
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

/// The emitted sources include <cstdint> and nothing else, and name no
/// intrinsic or intrinsic vector type, at every lane count.
TEST(NativeTiersSource, IncludesOnlyCstdintAndNoIntrinsics) {
  std::vector<std::function<std::string(unsigned)>> emitters;
  for (const char* d : {"histogram", "threshold", "random"}) {
    const rtl::Module m = design(d);
    emitters.push_back([m](unsigned lanes) {
      return rtl::tape::emit_cpp(rtl::tape::Program::compile(m, lanes));
    });
    emitters.push_back([nl = gate::lower_to_gates(m)](unsigned lanes) {
      return gate::emit_netlist_cpp(nl, lanes);
    });
  }
  for (const auto& emit : emitters)
    for (const unsigned lanes : {1u, 64u, 256u, 512u}) {
      const std::string src = emit(lanes);
      SCOPED_TRACE(src.substr(0, 200));
      std::size_t includes = 0;
      for (std::size_t at = src.find("#include"); at != std::string::npos;
           at = src.find("#include", at + 1)) {
        ++includes;
        EXPECT_EQ(src.compare(at, 18, "#include <cstdint>"), 0)
            << src.substr(at, src.find('\n', at) - at);
      }
      EXPECT_EQ(includes, 1u);
      for (const char* token : {"_mm", "__m256i", "__m512i", "immintrin"})
        EXPECT_EQ(src.find(token), std::string::npos) << token;
    }
}

}  // namespace
}  // namespace osss
