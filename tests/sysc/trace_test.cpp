// Tests for VCD tracing, including tracing of whole objects through
// to_bits() — the paper's sc_trace-for-objects pattern (Figs. 9/10).

#include "sysc/trace.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace osss::sysc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Each case writes its own VCD, named from the test name and the pid, so
/// cases running in parallel processes (ctest -j) never share a file.
class TraceTest : public ::testing::Test {
protected:
  std::string path_ =
      ::testing::TempDir() + "osss_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".vcd";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceTest, WritesHeaderAndChanges) {
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    Signal<bool> s(ctx, "s", false);
    TraceFile tf(ctx, path_);
    tf.trace(clk.signal(), "clk");
    tf.trace(s, "s");
    ctx.create_cthread("t", clk.signal(), [&]() -> Behavior {
      s.write(true);
      co_await wait();
    });
    ctx.run_for(2000);
    EXPECT_GT(tf.change_count(), 0u);
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("#500"), std::string::npos);  // first posedge
  EXPECT_NE(vcd.find("1!"), std::string::npos);    // clk rising
}

TEST_F(TraceTest, MultiBitUsesBinaryFormat) {
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    Signal<BitVector<4>> v(ctx, "v");
    TraceFile tf(ctx, path_);
    tf.trace(v, "v");
    ctx.create_cthread("t", clk.signal(), [&]() -> Behavior {
      v.write(BitVector<4>(0b1010));
      co_await wait();
    });
    ctx.run_for(1500);
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$var wire 4"), std::string::npos);
  EXPECT_NE(vcd.find("b1010 "), std::string::npos);
}

// An OSSS-style object traced through to_bits(), like sc_trace on
// SyncRegister in the paper.
struct TraceableObject {
  BitVector<8> value;
  bool operator==(const TraceableObject&) const = default;
  Bits to_bits() const { return value.to_bits(); }
};

TEST_F(TraceTest, ObjectsTraceViaToBits) {
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    Signal<TraceableObject> obj(ctx, "obj");
    TraceFile tf(ctx, path_);
    tf.trace(obj, "obj");
    ctx.create_cthread("t", clk.signal(), [&]() -> Behavior {
      obj.write(TraceableObject{BitVector<8>(0x5a)});
      co_await wait();
    });
    ctx.run_for(1500);
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
  EXPECT_NE(vcd.find("b01011010 "), std::string::npos);
}

TEST_F(TraceTest, TraceFnSamplesArbitraryState) {
  unsigned counter = 0;
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    TraceFile tf(ctx, path_);
    tf.trace_fn("counter", 16, [&] { return Bits(16, counter); });
    ctx.create_cthread("t", clk.signal(), [&]() -> Behavior {
      for (;;) {
        ++counter;
        co_await wait();
      }
    });
    ctx.run_for(3000);
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("b0000000000000001 "), std::string::npos);
  EXPECT_NE(vcd.find("b0000000000000011 "), std::string::npos);
}

TEST_F(TraceTest, RegistrationAfterRunThrows) {
  Context ctx;
  Clock clk(ctx, "clk", 1000);
  Signal<bool> s(ctx, "s", false);
  TraceFile tf(ctx, path_);
  tf.trace(s, "s");
  ctx.run_for(1000);
  Signal<bool> late(ctx, "late", false);
  EXPECT_THROW(tf.trace(late, "late"), std::logic_error);
}

TEST_F(TraceTest, GetterWidthMismatchIsNormalizedToVarWidth) {
  // A getter returning a Bits sized differently from the declared $var
  // width must be zero-extended/truncated, not dumped verbatim.
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    TraceFile tf(ctx, path_);
    tf.trace_fn("narrow", 4, [] { return Bits(8, 0xab); });   // truncate
    tf.trace_fn("wide", 8, [] { return Bits(4, 0x5); });      // zero-extend
    tf.trace_fn("flag", 1, [] { return Bits(8, 0xfe); });     // 1-bit var
    ctx.run_for(1500);
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$var wire 4 ! narrow $end"), std::string::npos);
  EXPECT_NE(vcd.find("b1011 !"), std::string::npos);       // 0xab -> 0xb
  EXPECT_NE(vcd.find("b00000101 \""), std::string::npos);  // 0x5 zext to 8
  EXPECT_NE(vcd.find("0#"), std::string::npos);  // lsb of 0xfe is 0
  EXPECT_EQ(vcd.find("b10101011"), std::string::npos);  // raw 8-bit leak
}

TEST_F(TraceTest, UnchangedSignalsProduceNoChurn) {
  std::uint64_t changes = 0;
  {
    Context ctx;
    Clock clk(ctx, "clk", 1000);
    Signal<bool> steady(ctx, "steady", false);
    TraceFile tf(ctx, path_);
    tf.trace(steady, "steady");
    ctx.run_for(10'000);
    changes = tf.change_count();
  }
  EXPECT_EQ(changes, 1u);  // only the initial dump
}

}  // namespace
}  // namespace osss::sysc
