// Randomized stress test for the simulation kernel: many clocked threads
// and methods across two clock domains, random wait patterns, synchronous
// resets asserted mid-run — and, the property under test, bit-identical
// determinism: two runs built from the same seed must produce the same
// event log, the same final state and the same delta-cycle count.  Seeds
// come from verify::StimGen::derive and are printed on failure.

#include "sysc/module.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <string>
#include <vector>

#include "verify/stimgen.hpp"

namespace osss::sysc {
namespace {

constexpr unsigned kThreads = 10;

struct RunLog {
  std::vector<std::string> events;  ///< "time:counter=value" per change
  std::vector<int> mid_reset_probe;
  std::vector<int> finals;
  std::uint64_t deltas = 0;
};

/// One full simulation: kThreads clocked threads split over two unrelated
/// clock domains, each waiting a random 1..4 cycles between increments,
/// one observer method per counter, and two mid-run reset pulses.
RunLog run_scenario(std::uint64_t seed) {
  Context ctx;
  Clock clk_a(ctx, "clk_a", 1000);
  Clock clk_b(ctx, "clk_b", 1700);
  Signal<bool> reset(ctx, "reset", false);
  RunLog log;

  std::deque<Signal<int>> counters;  // deque: stable addresses
  for (unsigned i = 0; i < kThreads; ++i)
    counters.emplace_back(ctx, std::string("c").append(std::to_string(i)), 0);

  for (unsigned i = 0; i < kThreads; ++i) {
    Signal<bool>& clk = (i % 2 == 0) ? clk_a.signal() : clk_b.signal();
    const std::string name = std::string("t").append(std::to_string(i));
    auto& proc = ctx.create_cthread(
        name, clk, [&ctx, &counters, i, name, seed]() -> Behavior {
          // Re-seeded per restart, so a reset replays the same schedule.
          std::mt19937_64 rng(verify::StimGen::derive(seed, name));
          counters[i].write(0);
          co_await wait();
          for (;;) {
            co_await wait(1 + static_cast<unsigned>(rng() % 4));
            counters[i].write(counters[i].read() + 1 +
                              static_cast<int>(rng() % 3));
          }
        });
    proc.set_reset(reset);
  }

  for (unsigned i = 0; i < kThreads; ++i) {
    ctx.create_method(
        std::string("w").append(std::to_string(i)),
        [&ctx, &counters, &log, i] {
          log.events.push_back(std::to_string(ctx.now()) + ":c" +
                               std::to_string(i) + "=" +
                               std::to_string(counters[i].read()));
        },
        {&counters[i]});
  }

  // Two synchronous reset pulses while everything is running.  Each window
  // spans at least one posedge of both clocks, so every thread restarts.
  ctx.kernel().schedule(40'000, [&reset] { reset.write(true); });
  ctx.kernel().schedule(43'000, [&reset] { reset.write(false); });
  ctx.kernel().schedule(43'100, [&counters, &log] {
    for (unsigned i = 0; i < kThreads; ++i)
      log.mid_reset_probe.push_back(counters[i].read());
  });
  ctx.kernel().schedule(90'000, [&reset] { reset.write(true); });
  ctx.kernel().schedule(93'500, [&reset] { reset.write(false); });

  ctx.run_for(150'000);
  log.deltas = ctx.kernel().delta_count();
  for (unsigned i = 0; i < kThreads; ++i)
    log.finals.push_back(counters[i].read());
  return log;
}

TEST(KernelStress, IdenticallySeededRunsAreBitIdentical) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(55), "kernel_stress");
  const RunLog a = run_scenario(seed);
  const RunLog b = run_scenario(seed);
  EXPECT_EQ(a.events, b.events) << "seed " << seed;
  EXPECT_EQ(a.finals, b.finals) << "seed " << seed;
  EXPECT_EQ(a.deltas, b.deltas) << "seed " << seed;
  EXPECT_EQ(a.mid_reset_probe, b.mid_reset_probe) << "seed " << seed;

  // Sanity: the scenario actually exercised the kernel.
  EXPECT_GT(a.events.size(), 200u) << "seed " << seed;
  EXPECT_GT(a.deltas, 100u) << "seed " << seed;
  for (unsigned i = 0; i < kThreads; ++i)
    EXPECT_GT(a.finals[i], 0) << "thread " << i << " stuck, seed " << seed;
}

TEST(KernelStress, MidRunResetZerosEveryCounter) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(55), "kernel_stress/reset");
  const RunLog log = run_scenario(seed);
  ASSERT_EQ(log.mid_reset_probe.size(), kThreads) << "seed " << seed;
  for (unsigned i = 0; i < kThreads; ++i)
    EXPECT_EQ(log.mid_reset_probe[i], 0)
        << "counter " << i << " survived reset, seed " << seed;
  // After the last reset release the threads resume counting.
  for (unsigned i = 0; i < kThreads; ++i)
    EXPECT_GT(log.finals[i], 0) << "seed " << seed;
}

TEST(KernelStress, DifferentSeedsProduceDifferentSchedules) {
  const std::uint64_t base = verify::env_seed(55);
  const RunLog a = run_scenario(verify::StimGen::derive(base, "s/1"));
  const RunLog b = run_scenario(verify::StimGen::derive(base, "s/2"));
  EXPECT_NE(a.events, b.events);
}

}  // namespace
}  // namespace osss::sysc
