// Tests for the constrained-random stimulus engine: seed discipline
// (determinism, per-input stream independence) and the shape of each
// constraint kind.

#include "verify/stimgen.hpp"

#include <gtest/gtest.h>

#include <set>

namespace osss::verify {
namespace {

TEST(StimGen, SameSeedSameStream) {
  StimGen a(42), b(42);
  a.declare("x", 16);
  b.declare("x", 16);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(a.next("x") == b.next("x"));
}

TEST(StimGen, DifferentSeedsDiffer) {
  StimGen a(42), b(43);
  a.declare("x", 32);
  b.declare("x", 32);
  unsigned same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.next("x") == b.next("x")) ++same;
  EXPECT_LT(same, 3u);
}

TEST(StimGen, StreamsIndependentOfDeclarationOrder) {
  // The vectors an input receives must not depend on which other inputs
  // exist or when they were declared — that is what makes a printed seed
  // reproducible after a test adds an input.
  StimGen a(7), b(7);
  a.declare("x", 8);
  a.declare("y", 8);
  b.declare("y", 8);
  b.declare("x", 8);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(a.next("x") == b.next("x"));
    EXPECT_TRUE(a.next("y") == b.next("y"));
  }
}

TEST(StimGen, DeriveSeparatesTags) {
  const std::uint64_t base = 99;
  EXPECT_NE(StimGen::derive(base, "a"), StimGen::derive(base, "b"));
  EXPECT_NE(StimGen::derive(base, "a"), StimGen::derive(base + 1, "a"));
  EXPECT_EQ(StimGen::derive(base, "a"), StimGen::derive(base, "a"));
}

TEST(StimGen, RestartReplaysFromTheTop) {
  StimGen g(5);
  g.declare("x", 12, {StimKind::kSticky, 2, 5, 0.0});
  std::vector<Bits> first;
  for (int i = 0; i < 30; ++i) first.push_back(g.next("x"));
  g.restart();
  for (int i = 0; i < 30; ++i) EXPECT_TRUE(g.next("x") == first[i]);
}

TEST(StimGen, BitToggleFlipsExactlyOneBit) {
  StimGen g(11);
  g.declare("x", 10, {StimKind::kBitToggle});
  Bits prev = g.next("x");
  for (int i = 0; i < 50; ++i) {
    const Bits cur = g.next("x");
    EXPECT_EQ((cur ^ prev).popcount(), 1u);
    prev = cur;
  }
}

TEST(StimGen, StickyHoldsWithinBurstBounds) {
  StimGen g(13);
  StimConstraint c;
  c.kind = StimKind::kSticky;
  c.burst_min = 3;
  c.burst_max = 6;
  g.declare("x", 8, c);
  Bits cur = g.next("x");
  unsigned run = 1;
  std::set<unsigned> runs;
  for (int i = 0; i < 400; ++i) {
    const Bits v = g.next("x");
    if (v == cur) {
      ++run;
    } else {
      runs.insert(run);
      cur = v;
      run = 1;
    }
  }
  for (const unsigned r : runs) {
    EXPECT_GE(r, 3u);
    EXPECT_LE(r, 6u);
  }
  EXPECT_FALSE(runs.empty());
}

TEST(StimGen, CornerBiasHitsCorners) {
  StimGen g(17);
  StimConstraint c;
  c.kind = StimKind::kCorner;
  c.corner_prob = 0.5;
  g.declare("x", 16, c);
  unsigned zeros = 0, ones = 0;
  for (int i = 0; i < 400; ++i) {
    const Bits v = g.next("x");
    if (v.is_zero()) ++zeros;
    if (v.is_ones()) ++ones;
  }
  // A uniform 16-bit stream would essentially never hit either corner.
  EXPECT_GT(zeros, 5u);
  EXPECT_GT(ones, 5u);
}

TEST(StimGen, LanesCarryScalarStreamInLaneZero) {
  StimGen scalar(23), wide(23), wider(23);
  scalar.declare("x", 9);
  wide.declare("x", 9);
  wider.declare("x", 9);
  std::uint64_t words[9], words256[9 * 4];
  for (int i = 0; i < 20; ++i) {
    const Bits v = scalar.next("x");
    wide.next_lanes("x", 64, words);
    wider.next_lanes("x", 256, words256);
    for (unsigned bi = 0; bi < 9; ++bi) {
      EXPECT_EQ((words[bi] & 1u) != 0, v.bit(bi)) << "cycle " << i;
      EXPECT_EQ((words256[bi * 4] & 1u) != 0, v.bit(bi)) << "cycle " << i;
    }
  }
}

TEST(StimGen, RejectsDuplicatesAndUnknowns) {
  StimGen g(1);
  g.declare("x", 4);
  EXPECT_THROW(g.declare("x", 4), std::invalid_argument);
  EXPECT_THROW(g.declare("z", 0), std::invalid_argument);
  EXPECT_THROW(g.next("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace osss::verify
