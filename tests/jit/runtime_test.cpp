// runtime_test.cpp — the settle rule and the power-on snapshot that both
// native lane engines take from jit::Runtime, checked on their interpreted
// evaluators (gate kNative and rtl kNative with force_fallback, rtl kTape)
// at 1 and 64 lanes:
//
//   * writes only store and dirty-mark: any number of set_input* calls with
//     no read in between evaluate no level, and the next read or step()
//     settles once;
//   * restore_poweron() returns to a settled snapshot: the first read
//     evaluates no level and matches a freshly built engine.
//
// Every interpreted sweep adds the design's level count to
// levels_evaluated + levels_skipped, so that sum counts settles.
//
// A fallback that was not asked for is said once per process on stderr;
// those checks run in a fresh process each (a death-test child), so what
// earlier tests printed cannot hide or repeat the line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"

namespace osss {
namespace {

/// A register loop plus shallow and deeper combinational outputs.
rtl::Module design() {
  rtl::Builder b("runtime");
  const rtl::Wire a = b.input("a", 8);
  const rtl::Wire c = b.input("c", 8);
  const rtl::Wire acc = b.reg("acc", 8, std::uint64_t{5});
  b.connect(acc, b.add(acc, b.xor_(a, c)));
  b.output("sum", b.add(b.mul(acc, c), a));
  b.output("mix", b.and_(b.not_(a), c));
  return b.take();
}

std::uint64_t stimulus(unsigned lane, unsigned cycle, unsigned port) {
  return (lane * 37u + cycle * 11u + port * 101u) & 0xffu;
}

/// One engine under test, behind the calls the checks need.
class Engine {
 public:
  virtual ~Engine() = default;
  /// Several set_input* writes: both inputs broadcast, then per lane.
  virtual void write(unsigned cycle) = 0;
  /// Every output, one value per lane.
  virtual std::vector<std::uint64_t> read() = 0;
  virtual void step() = 0;
  virtual void restore_poweron() = 0;
  /// levels_evaluated + levels_skipped.
  virtual std::uint64_t levels_seen() = 0;
  /// Levels one settle sweeps.
  virtual std::uint64_t levels() = 0;
};

std::vector<std::uint64_t> lane_values(unsigned lanes, unsigned cycle,
                                       unsigned port) {
  std::vector<std::uint64_t> v(lanes);
  for (unsigned l = 0; l < lanes; ++l) v[l] = stimulus(l, cycle, port);
  return v;
}

class GateEngine : public Engine {
 public:
  explicit GateEngine(unsigned lanes)
      : nl_(gate::lower_to_gates(design())), lanes_(lanes) {
    gate::CodegenOptions opt;
    opt.force_fallback = true;
    sim_ = std::make_unique<gate::Simulator>(nl_, gate::SimMode::kNative,
                                             lanes, opt);
    for (const std::uint32_t l : nl_.topo_levels())
      if (l != gate::kNoLevel)
        levels_ = std::max<std::uint64_t>(levels_, l + 1);
  }
  void write(unsigned cycle) override {
    sim_->set_input("a", stimulus(0, cycle, 0));
    sim_->set_input("c", stimulus(0, cycle, 1));
    sim_->set_input_values("a", lane_values(lanes_, cycle, 0));
    sim_->set_input_values("c", lane_values(lanes_, cycle, 1));
  }
  std::vector<std::uint64_t> read() override {
    std::vector<std::uint64_t> out = sim_->output_values("sum");
    const std::vector<std::uint64_t> mix = sim_->output_values("mix");
    out.insert(out.end(), mix.begin(), mix.end());
    return out;
  }
  void step() override { sim_->step(); }
  void restore_poweron() override { sim_->restore_poweron(); }
  std::uint64_t levels_seen() override {
    return sim_->stats().levels_evaluated + sim_->stats().levels_skipped;
  }
  std::uint64_t levels() override { return levels_; }

 private:
  gate::Netlist nl_;
  unsigned lanes_;
  std::unique_ptr<gate::Simulator> sim_;
  std::uint64_t levels_ = 0;
};

class RtlEngine : public Engine {
 public:
  RtlEngine(rtl::SimMode mode, unsigned lanes) : lanes_(lanes) {
    rtl::tape::CodegenOptions opt;
    opt.force_fallback = true;
    sim_ = std::make_unique<rtl::Simulator>(design(), mode, lanes, opt);
  }
  void write(unsigned cycle) override {
    sim_->set_input("a", stimulus(0, cycle, 0));
    sim_->set_input("c", stimulus(0, cycle, 1));
    sim_->set_input_values(sim_->input_handle("a"),
                           lane_values(lanes_, cycle, 0));
    sim_->set_input_values(sim_->input_handle("c"),
                           lane_values(lanes_, cycle, 1));
  }
  std::vector<std::uint64_t> read() override {
    std::vector<std::uint64_t> out =
        sim_->output_values(sim_->output_handle("sum"));
    const std::vector<std::uint64_t> mix =
        sim_->output_values(sim_->output_handle("mix"));
    out.insert(out.end(), mix.begin(), mix.end());
    return out;
  }
  void step() override { sim_->step(); }
  void restore_poweron() override { sim_->restore_poweron(); }
  std::uint64_t levels_seen() override {
    const rtl::Simulator::Stats s = sim_->stats();
    return s.levels_evaluated + s.levels_skipped;
  }
  std::uint64_t levels() override { return sim_->stats().levels; }

 private:
  unsigned lanes_;
  std::unique_ptr<rtl::Simulator> sim_;
};

struct Maker {
  std::string name;
  std::function<std::unique_ptr<Engine>()> make;
};

std::vector<Maker> interpreted_engines() {
  std::vector<Maker> out;
  for (const unsigned lanes : {1u, 64u}) {
    const std::string x = " x" + std::to_string(lanes);
    out.push_back({"gate native-fallback" + x,
                   [=] { return std::make_unique<GateEngine>(lanes); }});
    out.push_back({"rtl native-fallback" + x, [=] {
                     return std::make_unique<RtlEngine>(rtl::SimMode::kNative,
                                                        lanes);
                   }});
    out.push_back({"rtl tape" + x, [=] {
                     return std::make_unique<RtlEngine>(rtl::SimMode::kTape,
                                                        lanes);
                   }});
  }
  return out;
}

TEST(NativeRuntime, WritesDeferTheSettleToTheNextReadOrStep) {
  for (const Maker& m : interpreted_engines()) {
    SCOPED_TRACE(m.name);
    const std::unique_ptr<Engine> e = m.make();
    ASSERT_GT(e->levels(), 0u);
    (void)e->read();
    const std::uint64_t base = e->levels_seen();
    for (unsigned cycle = 0; cycle < 4; ++cycle) e->write(cycle);
    EXPECT_EQ(e->levels_seen(), base) << "a write evaluated levels";
    (void)e->read();
    EXPECT_EQ(e->levels_seen(), base + e->levels())
        << "the first read after the writes must settle exactly once";
    (void)e->read();
    EXPECT_EQ(e->levels_seen(), base + e->levels())
        << "a second read found a settle pending";
    e->write(4);
    e->write(5);
    EXPECT_EQ(e->levels_seen(), base + e->levels());
    e->step();
    EXPECT_EQ(e->levels_seen(), base + 2 * e->levels())
        << "step() must settle exactly once before its commit";
  }
}

TEST(NativeRuntime, RestorePoweronIsSettledAndMatchesAFreshEngine) {
  for (const Maker& m : interpreted_engines()) {
    SCOPED_TRACE(m.name);
    const std::unique_ptr<Engine> e = m.make();
    for (unsigned cycle = 0; cycle < 6; ++cycle) {
      e->write(cycle);
      e->step();
    }
    e->restore_poweron();
    const std::uint64_t base = e->levels_seen();
    const std::vector<std::uint64_t> restored = e->read();
    EXPECT_EQ(e->levels_seen(), base)
        << "the first read after restore_poweron() evaluated levels";
    const std::unique_ptr<Engine> fresh = m.make();
    EXPECT_EQ(restored, fresh->read());
    for (unsigned cycle = 0; cycle < 6; ++cycle) {
      e->write(cycle + 10);
      fresh->write(cycle + 10);
      e->step();
      fresh->step();
      ASSERT_EQ(e->read(), fresh->read()) << "cycle " << cycle;
    }
  }
}

/// Builds a gate and an RTL engine at 64 lanes in this process with
/// OSSS_CC and OSSS_NO_JIT as given (nullptr unsets), then a gate engine
/// with force_fallback, and exits with the number of fallback warnings on
/// stderr, echoing that stderr with a summary line for the parent's regex.
[[noreturn]] void count_fallback_warnings(const char* cc, const char* no_jit) {
  const auto set = [](const char* var, const char* value) {
    if (value != nullptr)
      ::setenv(var, value, 1);
    else
      ::unsetenv(var);
  };
  set("OSSS_CC", cc);
  set("OSSS_NO_JIT", no_jit);
  testing::internal::CaptureStderr();
  {
    gate::Simulator g(gate::lower_to_gates(design()), gate::SimMode::kNative,
                      64);
    rtl::Simulator r(design(), rtl::SimMode::kNative, 64);
    gate::CodegenOptions off;
    off.force_fallback = true;
    gate::Simulator f(gate::lower_to_gates(design()), gate::SimMode::kNative,
                      64, off);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  int warnings = 0;
  for (std::size_t at = err.find("osss: "); at != std::string::npos;
       at = err.find("osss: ", at + 1))
    ++warnings;
  std::fprintf(stderr, "%sfallback warnings: %d\n", err.c_str(), warnings);
  std::exit(warnings);
}

/// Two engines whose compiler cannot run print one line between them, and
/// it quotes the compile log.
TEST(NativeRuntime, FailedCompileWarnsOncePerProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(count_fallback_warnings("/nonexistent/osss-cc", nullptr),
              ::testing::ExitedWithCode(1),
              "interpreted dispatch.*cannot run '/nonexistent/osss-cc'");
}

/// A fallback that was asked for (OSSS_NO_JIT, force_fallback) is silent.
TEST(NativeRuntime, DisabledJitPrintsNothing) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(count_fallback_warnings("/nonexistent/osss-cc", "1"),
              ::testing::ExitedWithCode(0), "fallback warnings: 0");
}

}  // namespace
}  // namespace osss
