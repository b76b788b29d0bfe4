// Tests that randomized equivalence checking reaches the same verdict on
// every simulator engine — scalar event-driven, and the native engine's
// interpreted fallback at 1 and 64 lanes — and that mixed-engine runs
// cross-validate the engines.

#include "gate/equiv.hpp"

#include <gtest/gtest.h>

#include "gate/lower.hpp"
#include "rtl/builder.hpp"

namespace osss::gate {
namespace {

using rtl::Builder;
using rtl::Wire;

rtl::Module xor_pipe() {
  Builder b("pipe");
  Wire a = b.input("a", 8);
  Wire x = b.input("b", 8);
  Wire q = b.reg("q", 8);
  b.connect(q, b.xor_(a, x));
  b.output("o", q);
  return b.take();
}

rtl::Module or_pipe() {  // differs from xor_pipe whenever a & b != 0
  Builder b("pipe");
  Wire a = b.input("a", 8);
  Wire x = b.input("b", 8);
  Wire q = b.reg("q", 8);
  b.connect(q, b.or_(a, x));
  b.output("o", q);
  return b.take();
}

/// Both sides on one engine: the event engine, or the native engine's
/// interpreted fallback at `lanes`.
EquivOptions on_engine(SimMode mode, unsigned lanes, unsigned sequences,
                       unsigned cycles, std::uint64_t seed) {
  EquivOptions opt;
  opt.sequences = sequences;
  opt.cycles = cycles;
  opt.seed = seed;
  opt.mode_a = mode;
  opt.mode_b = mode;
  opt.lanes = lanes;
  opt.codegen.force_fallback = true;
  return opt;
}

struct Engine {
  SimMode mode;
  unsigned lanes;
};
constexpr Engine kAllEngines[] = {
    {SimMode::kEvent, 0}, {SimMode::kNative, 1}, {SimMode::kNative, 64}};

TEST(EquivModes, EquivalentPairPassesInEveryMode) {
  const Netlist a = lower_to_gates(xor_pipe());
  const Netlist b = lower_to_gates(xor_pipe());
  for (const Engine e : kAllEngines) {
    const EquivResult r =
        check_equivalence(a, b, on_engine(e.mode, e.lanes, 2, 64, 5));
    EXPECT_TRUE(r) << sim_mode_name(e.mode) << " x" << e.lanes << ": "
                   << r.counterexample;
  }
}

TEST(EquivModes, InequivalentPairFailsInEveryMode) {
  const Netlist a = lower_to_gates(xor_pipe());
  const Netlist b = lower_to_gates(or_pipe());
  for (const Engine e : kAllEngines) {
    const EquivResult r =
        check_equivalence(a, b, on_engine(e.mode, e.lanes, 2, 64, 5));
    EXPECT_FALSE(r) << sim_mode_name(e.mode) << " x" << e.lanes;
    EXPECT_NE(r.counterexample.find("output o"), std::string::npos)
        << sim_mode_name(e.mode) << " x" << e.lanes << ": "
        << r.counterexample;
  }
}

TEST(EquivModes, BitParallelChecks64VectorsPerCycle) {
  const Netlist a = lower_to_gates(xor_pipe());
  const Netlist b = lower_to_gates(xor_pipe());
  const EquivResult scalar =
      check_equivalence(a, b, 1, 32, 7, SimMode::kEvent);
  const EquivResult par =
      check_equivalence(a, b, on_engine(SimMode::kNative, 64, 1, 32, 7));
  ASSERT_TRUE(scalar);
  ASSERT_TRUE(par);
  EXPECT_EQ(scalar.cycles_checked, 32u);
  EXPECT_EQ(par.cycles_checked, 32u * Simulator::kLanes);
}

TEST(EquivModes, MixedEnginesCrossValidateOneNetlist) {
  const Netlist nl = lower_to_gates(xor_pipe());
  for (const unsigned lanes : {1u, 64u}) {
    EquivOptions opt = on_engine(SimMode::kNative, lanes, 2, 64, 0);
    opt.mode_a = SimMode::kEvent;
    const EquivResult r = check_equivalence(nl, nl, opt);
    EXPECT_TRUE(r) << "native x" << lanes << ": " << r.counterexample;
  }
}

TEST(EquivModes, InterfaceMismatchReportedInEveryMode) {
  Builder b("other");
  b.output("o", b.input("a", 4));
  const Netlist narrow = lower_to_gates(b.take());
  const Netlist pipe = lower_to_gates(xor_pipe());
  for (const Engine e : kAllEngines) {
    const EquivResult r =
        check_equivalence(pipe, narrow, on_engine(e.mode, e.lanes, 1, 4, 1));
    EXPECT_FALSE(r);
    EXPECT_NE(r.counterexample.find("interface mismatch"), std::string::npos);
  }
}

}  // namespace
}  // namespace osss::gate
