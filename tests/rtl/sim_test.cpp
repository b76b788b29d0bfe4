// Tests for the cycle-accurate RTL simulator: combinational evaluation,
// register semantics, enables, memories, reset and fault injection.

#include "rtl/sim.hpp"

#include <gtest/gtest.h>

#include <random>

#include "rtl/builder.hpp"

namespace osss::rtl {
namespace {

Module make_alu() {
  Builder b("alu");
  Wire a = b.input("a", 8);
  Wire x = b.input("b", 8);
  Wire op = b.input("op", 2);
  Wire add = b.add(a, x);
  Wire sub = b.sub(a, x);
  Wire band = b.and_(a, x);
  Wire bxor = b.xor_(a, x);
  Wire sel0 = b.eq(op, b.constant(2, 0));
  Wire sel1 = b.eq(op, b.constant(2, 1));
  Wire sel2 = b.eq(op, b.constant(2, 2));
  Wire r = b.mux(sel0, add, b.mux(sel1, sub, b.mux(sel2, band, bxor)));
  b.output("r", r);
  return b.take();
}

TEST(RtlSim, CombinationalAlu) {
  Module m = make_alu();
  Simulator sim(m);
  sim.set_input("a", 100);
  sim.set_input("b", 30);
  sim.set_input("op", 0);
  EXPECT_EQ(sim.output("r").to_u64(), 130u);
  sim.set_input("op", 1);
  EXPECT_EQ(sim.output("r").to_u64(), 70u);
  sim.set_input("op", 2);
  EXPECT_EQ(sim.output("r").to_u64(), 100u & 30u);
  sim.set_input("op", 3);
  EXPECT_EQ(sim.output("r").to_u64(), 100u ^ 30u);
}

TEST(RtlSim, CounterWithEnable) {
  Builder b("counter");
  Wire en = b.input("en", 1);
  Wire q = b.reg("count", 8);
  b.connect(q, b.add(q, b.constant(8, 1)));
  b.enable(q, en);
  b.output("count", q);
  Module m = b.take();
  Simulator sim(m);
  sim.set_input("en", 1);
  sim.step(5);
  EXPECT_EQ(sim.output("count").to_u64(), 5u);
  sim.set_input("en", 0);
  sim.step(10);
  EXPECT_EQ(sim.output("count").to_u64(), 5u);
  sim.set_input("en", 1);
  sim.step(1);
  EXPECT_EQ(sim.output("count").to_u64(), 6u);
}

TEST(RtlSim, RegisterInitAndReset) {
  Builder b("m");
  Wire q = b.reg("r", 8, 0xa5);
  b.connect(q, b.constant(8, 0x11));
  b.output("q", q);
  Module m = b.take();
  Simulator sim(m);
  EXPECT_EQ(sim.output("q").to_u64(), 0xa5u);
  sim.step();
  EXPECT_EQ(sim.output("q").to_u64(), 0x11u);
  sim.reset();
  EXPECT_EQ(sim.output("q").to_u64(), 0xa5u);
  EXPECT_EQ(sim.cycle_count(), 1u);
}

TEST(RtlSim, RegistersCaptureSimultaneously) {
  // Classic swap: a <= b, b <= a must exchange values every cycle.
  Builder b("swap");
  Wire ra = b.reg("ra", 4, 0x3);
  Wire rb = b.reg("rb", 4, 0xc);
  b.connect(ra, rb);
  b.connect(rb, ra);
  b.output("a", ra);
  b.output("b", rb);
  Module m = b.take();
  Simulator sim(m);
  sim.step();
  EXPECT_EQ(sim.output("a").to_u64(), 0xcu);
  EXPECT_EQ(sim.output("b").to_u64(), 0x3u);
  sim.step();
  EXPECT_EQ(sim.output("a").to_u64(), 0x3u);
  EXPECT_EQ(sim.output("b").to_u64(), 0xcu);
}

TEST(RtlSim, MemoryReadModifyWrite) {
  // One-port histogram-style accumulator: mem[addr] += 1 when en.
  Builder b("hist");
  Wire addr = b.input("addr", 4);
  Wire en = b.input("en", 1);
  MemHandle mem = b.memory("bins", 16, 8);
  Wire cur = b.mem_read(mem, addr);
  b.mem_write(mem, addr, b.add(cur, b.constant(8, 1)), en);
  b.output("cur", cur);
  Module m = b.take();
  Simulator sim(m);
  sim.set_input("en", 1);
  sim.set_input("addr", 5);
  sim.step(3);
  sim.set_input("addr", 2);
  sim.step(1);
  EXPECT_EQ(sim.mem_word(0, 5).to_u64(), 3u);
  EXPECT_EQ(sim.mem_word(0, 2).to_u64(), 1u);
  EXPECT_EQ(sim.mem_word(0, 0).to_u64(), 0u);
  sim.reset();
  EXPECT_EQ(sim.mem_word(0, 5).to_u64(), 0u);
}

TEST(RtlSim, MemReadOutOfDepthReadsZero) {
  Builder b("m");
  Wire addr = b.input("addr", 4);
  MemHandle mem = b.memory("ram", 10, 8);  // depth 10 < 2^4
  b.output("q", b.mem_read(mem, addr));
  Module m = b.take();
  Simulator sim(m);
  sim.poke_mem(0, 9, Bits(8, 0x7f));
  sim.set_input("addr", 9);
  EXPECT_EQ(sim.output("q").to_u64(), 0x7fu);
  sim.set_input("addr", 12);
  EXPECT_EQ(sim.output("q").to_u64(), 0u);
}

TEST(RtlSim, VariableShift) {
  Builder b("m");
  Wire a = b.input("a", 16);
  Wire s = b.input("s", 4);
  b.output("l", b.shlv(a, s));
  b.output("r", b.lshrv(a, s));
  Module m = b.take();
  Simulator sim(m);
  sim.set_input("a", 0x00f0);
  sim.set_input("s", 4);
  EXPECT_EQ(sim.output("l").to_u64(), 0x0f00u);
  EXPECT_EQ(sim.output("r").to_u64(), 0x000fu);
}

TEST(RtlSim, ReductionsAndExtensions) {
  Builder b("m");
  Wire a = b.input("a", 4);
  b.output("ro", b.red_or(a));
  b.output("ra", b.red_and(a));
  b.output("rx", b.red_xor(a));
  b.output("z", b.zext(a, 8));
  b.output("s", b.sext(a, 8));
  Module m = b.take();
  Simulator sim(m);
  sim.set_input("a", 0b1010);
  EXPECT_EQ(sim.output("ro").to_u64(), 1u);
  EXPECT_EQ(sim.output("ra").to_u64(), 0u);
  EXPECT_EQ(sim.output("rx").to_u64(), 0u);
  EXPECT_EQ(sim.output("z").to_u64(), 0x0au);
  EXPECT_EQ(sim.output("s").to_u64(), 0xfau);
  sim.set_input("a", 0b1111);
  EXPECT_EQ(sim.output("ra").to_u64(), 1u);
  sim.set_input("a", 0b0111);
  EXPECT_EQ(sim.output("rx").to_u64(), 1u);
  sim.set_input("a", 0);
  EXPECT_EQ(sim.output("ro").to_u64(), 0u);
}

TEST(RtlSim, PokeRegFaultInjection) {
  Builder b("m");
  Wire q = b.reg("state", 8, 0);
  b.connect(q, q);  // holds value
  b.output("q", q);
  Module m = b.take();
  Simulator sim(m);
  sim.poke_reg("state", Bits(8, 0xee));
  EXPECT_EQ(sim.output("q").to_u64(), 0xeeu);
  sim.step(3);
  EXPECT_EQ(sim.output("q").to_u64(), 0xeeu);
  EXPECT_THROW(sim.poke_reg("nope", Bits(8, 0)), std::logic_error);
  EXPECT_THROW(sim.poke_reg("state", Bits(4, 0)), std::logic_error);
}

TEST(RtlSim, UnknownPortsThrow) {
  Module m = make_alu();
  Simulator sim(m);
  EXPECT_THROW(sim.set_input("zz", 1), std::logic_error);
  EXPECT_THROW(sim.output("zz"), std::logic_error);
  EXPECT_THROW(sim.set_input("a", Bits(9, 0)), std::logic_error);
}

// Property: a pipelined multiplier datapath (two stages) matches the
// native product delayed by two cycles, for random stimuli.
TEST(RtlSimProperty, PipelinedMultiplierMatchesReference) {
  Builder b("pipe_mul");
  Wire a = b.input("a", 16);
  Wire x = b.input("b", 16);
  Wire s1a = b.reg("s1a", 16);
  Wire s1b = b.reg("s1b", 16);
  b.connect(s1a, a);
  b.connect(s1b, x);
  Wire prod = b.mul(s1a, s1b);
  Wire s2 = b.reg("s2", 16);
  b.connect(s2, prod);
  b.output("p", s2);
  Module m = b.take();
  Simulator sim(m);

  std::mt19937_64 rng(77);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = rng() & 0xffff;
    const std::uint64_t vb = rng() & 0xffff;
    expect.push_back((va * vb) & 0xffff);
    sim.set_input("a", va);
    sim.set_input("b", vb);
    sim.step();
    if (i >= 2) {
      EXPECT_EQ(sim.output("p").to_u64(), expect[i - 1]);
    }
    sim.step(0);
  }
}

TEST(RtlSim, HandlesDriveAndReadPortsWithoutNameLookups) {
  Builder b("h");
  Wire a = b.input("a", 8);
  Wire x = b.input("b", 8);
  b.output("sum", b.add(a, x));
  b.output("prod", b.mul(a, x));
  Simulator sim(b.take());

  const InputHandle ha = sim.input_handle("a");
  const InputHandle hb = sim.input_handle("b");
  const OutputHandle hs = sim.output_handle("sum");
  const OutputHandle hp = sim.output_handle("prod");
  sim.set_input(ha, Bits(8, 7));
  sim.set_input(hb, std::uint64_t{0x105});  // u64 overload truncates: 0x05
  EXPECT_EQ(sim.output(hs).to_u64(), 12u);
  EXPECT_EQ(sim.output(hp).to_u64(), 35u);

  EXPECT_THROW(sim.input_handle("nope"), std::logic_error);
  EXPECT_THROW(sim.output_handle("nope"), std::logic_error);
  EXPECT_THROW(sim.set_input(ha, Bits(9, 0)), std::logic_error);
}

TEST(RtlSim, InterpreterTakesOneLaneWords) {
  // The interpreter's one lane is bit 0 of each lane word: it must track a
  // by-value twin while the other bits carry noise, read its outputs back
  // as lane words, and throw on a word count other than the port width.
  Builder b("lanes");
  Wire a = b.input("a", 8);
  Wire q = b.reg("q", 8);
  b.connect(q, b.add(q, a));
  b.output("o", b.xor_(q, a));
  const Module m = b.take();
  Simulator words(m), values(m);
  const InputHandle ha = words.input_handle("a");
  const OutputHandle ho = words.output_handle("o");
  for (unsigned c = 0; c < 40; ++c) {
    const std::uint64_t noise = 0x5a5a5a5a5a5a5a5aull * (c + 1);
    const std::uint64_t operand = (c * 37 + 11) & 0xff;
    std::vector<std::uint64_t> lane_words(8);
    for (unsigned i = 0; i < 8; ++i)
      lane_words[i] = (noise & ~1ull) | ((operand >> i) & 1u);
    words.set_input_lanes(ha, lane_words);
    values.set_input("a", operand);
    words.step();
    values.step();
    const std::uint64_t want = values.output("o").to_u64();
    const std::vector<std::uint64_t> out = words.output_words(ho);
    ASSERT_EQ(out.size(), 8u);
    for (unsigned i = 0; i < 8; ++i)
      ASSERT_EQ(out[i], (want >> i) & 1u) << "cycle " << c << " bit " << i;
  }
  EXPECT_THROW(words.set_input_lanes(ha, std::vector<std::uint64_t>(9)),
               std::logic_error);
  EXPECT_THROW(
      words.set_input_lanes(InputHandle{7}, std::vector<std::uint64_t>(8)),
      std::logic_error);
  EXPECT_THROW(words.output_words(OutputHandle{7}), std::logic_error);
}

TEST(RtlSim, WideConcatEvaluatesLinearly) {
  // Many-operand concat: each operand deposited once (regression for the
  // quadratic accumulator rebuild); values must match bit-by-bit.
  Builder b("cat");
  std::vector<Wire> parts;
  for (int i = 0; i < 16; ++i)
    parts.push_back(b.input(std::string("i").append(std::to_string(i)), 5));
  b.output("o", b.concat(parts));
  Simulator sim(b.take());
  std::mt19937_64 rng(9);
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 16; ++i) {
    vals.push_back(rng() & 0x1f);
    sim.set_input(std::string("i").append(std::to_string(i)), vals.back());
  }
  const Bits o = sim.output("o");
  ASSERT_EQ(o.width(), 80u);
  // parts[0] is the MOST significant chunk.
  for (int i = 0; i < 16; ++i)
    for (unsigned bit = 0; bit < 5; ++bit)
      EXPECT_EQ(o.bit((15 - i) * 5 + bit), ((vals[i] >> bit) & 1) != 0)
          << i << "." << bit;
}

}  // namespace
}  // namespace osss::rtl
