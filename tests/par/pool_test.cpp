// Work-stealing pool: exactly-once execution, ordered results, an ordered
// reduction that is bit-identical for every thread count, and exception
// propagation.

#include "par/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace osss::par {
namespace {

TEST(Pool, SizeMatchesConstruction) {
  EXPECT_EQ(Pool(1).size(), 1u);
  EXPECT_EQ(Pool(4).size(), 4u);
}

TEST(Pool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Pool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
  }
}

TEST(Pool, ParallelForHandlesEdgeSizes) {
  Pool pool(4);
  std::atomic<int> ran{0};
  pool.parallel_for(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Pool, ParallelMapPreservesIndexOrder) {
  Pool pool(4);
  const std::vector<int> out = pool.parallel_map<int>(
      100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Pool, OrderedReduceIsIdenticalForEveryThreadCount) {
  // String concatenation is non-commutative: folding the parallel_map
  // slots in index order gives the same string only if no slot moved, so
  // equality across pool sizes proves the determinism contract.
  const auto campaign = [](unsigned threads) {
    Pool pool(threads);
    std::string acc;
    for (const std::string& part : pool.parallel_map<std::string>(
             26, [](std::size_t i) { return std::string(1, char('a' + i)); }))
      acc += part;
    return acc;
  };
  const std::string serial = campaign(1);
  EXPECT_EQ(serial, "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(campaign(2), serial);
  EXPECT_EQ(campaign(8), serial);
}

TEST(Pool, ParallelForRethrowsFirstBodyException) {
  for (const unsigned threads : {1u, 4u}) {
    Pool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 13) throw std::runtime_error("boom");
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    // Every chunk still retires (no hung workers) even when one throws.
    EXPECT_GT(ran.load(), 0);
  }
}

TEST(Pool, CountsExecutedTasks) {
  Pool pool(4);
  pool.parallel_for(256, [](std::size_t) {});
  const Pool::Stats s = pool.stats();
  EXPECT_GT(s.executed, 0u);
  EXPECT_GE(s.steals * 2, s.stolen_tasks == 0 ? 0 : s.steals);  // sane pair
}

TEST(Pool, GlobalPoolIsUsable) {
  std::atomic<int> n{0};
  Pool::global().parallel_for(10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

}  // namespace
}  // namespace osss::par
