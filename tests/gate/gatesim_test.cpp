// Tests for the gate simulator itself (event accounting, reset, memory
// poke, lane independence) on the event engine and on the native engine's
// interpreted fallback at 1 and 64 lanes — equivalence against RTL is
// covered in lower_test.

#include "gate/sim.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "gate/lower.hpp"
#include "rtl/builder.hpp"

namespace osss::gate {
namespace {

using rtl::Builder;
using rtl::Wire;

/// The native engine's interpreted fallback: the lane interpreter.
Simulator fallback_sim(Netlist nl, unsigned lanes) {
  CodegenOptions opt;
  opt.force_fallback = true;
  return Simulator(std::move(nl), SimMode::kNative, lanes, std::move(opt));
}

TEST(GateSim, EventDrivenOnlyEvaluatesOnChange) {
  // A counter whose LSB toggles every cycle but MSB rarely: event counts
  // must grow far slower than gates * cycles.
  Builder b("counter");
  Wire q = b.reg("count", 16);
  b.connect(q, b.add(q, b.constant(16, 1)));
  b.output("count", q);
  Netlist nl = lower_to_gates(b.take());
  Simulator sim(nl);
  const std::uint64_t baseline = sim.event_count();
  sim.step(256);
  const std::uint64_t per_cycle =
      (sim.event_count() - baseline) / 256;
  // Full evaluation would be every gate every cycle.
  EXPECT_LT(per_cycle, nl.gate_count());
  EXPECT_EQ(sim.output("count").to_u64(), 256u);
}

TEST(GateSim, ResetRestoresInitAndMemories) {
  Builder b("m");
  Wire q = b.reg("r", 4, 0x9);
  b.connect(q, b.add(q, b.constant(4, 1)));
  b.output("q", q);
  Wire addr = b.input("addr", 2);
  rtl::MemHandle mem = b.memory("ram", 4, 4);
  b.mem_write(mem, addr, q, b.constant(1, 1));
  b.output("mq", b.mem_read(mem, addr));
  Netlist nl = lower_to_gates(b.take());
  Simulator sim(nl);
  sim.set_input("addr", 1);
  sim.step(3);
  EXPECT_NE(sim.output("q").to_u64(), 0x9u);
  EXPECT_NE(sim.mem_word(0, 1).to_u64(), 0u);
  sim.reset();
  EXPECT_EQ(sim.output("q").to_u64(), 0x9u);
  EXPECT_EQ(sim.mem_word(0, 1).to_u64(), 0u);
}

TEST(GateSim, PokeMemPropagatesToReadPorts) {
  Builder b("m");
  Wire addr = b.input("addr", 2);
  rtl::MemHandle mem = b.memory("ram", 4, 8);
  b.output("q", b.mem_read(mem, addr));
  Netlist nl = lower_to_gates(b.take());
  Simulator sim(nl);
  sim.set_input("addr", 2);
  EXPECT_EQ(sim.output("q").to_u64(), 0u);
  sim.poke_mem(0, 2, Bits(8, 0xab));
  EXPECT_EQ(sim.output("q").to_u64(), 0xabu);
  EXPECT_THROW(sim.poke_mem(0, 2, Bits(4, 0)), std::logic_error);
}

TEST(GateSim, UnknownBusThrows) {
  Builder b("m");
  Wire a = b.input("a", 2);
  b.output("o", a);
  Netlist nl = lower_to_gates(b.take());
  Simulator sim(nl);
  EXPECT_THROW(sim.set_input("zz", 1), std::logic_error);
  EXPECT_THROW(sim.output("zz"), std::logic_error);
  EXPECT_THROW(sim.set_input("a", Bits(3, 0)), std::logic_error);
  // Scalar engines have one lane: lane 7 is out of range, not all-zero.
  Simulator event(nl, SimMode::kEvent);
  Simulator scalar = fallback_sim(nl, 1);
  for (Simulator* one : {&event, &scalar}) {
    EXPECT_NO_THROW(one->output_lane("o", 0));
    EXPECT_THROW(one->output_lane("o", 7), std::logic_error);
  }
  Simulator wide = fallback_sim(nl, 64);
  EXPECT_NO_THROW(wide.output_lane("o", 63));
  EXPECT_THROW(wide.output_lane("o", 64), std::logic_error);
}

TEST(GateSim, NetIndexIsRangeChecked) {
  Builder b("m");
  Wire a = b.input("a", 2);
  b.output("o", b.not_(a));
  const Netlist nl = lower_to_gates(b.take());
  const NetId past = static_cast<NetId>(nl.cells().size());
  Simulator event(nl, SimMode::kEvent);
  Simulator scalar = fallback_sim(nl, 1);
  Simulator wide = fallback_sim(nl, 256);
  for (Simulator* sim : {&event, &scalar, &wide}) {
    SCOPED_TRACE(sim->lanes());
    EXPECT_NO_THROW(sim->net(past - 1));
    EXPECT_NO_THROW(sim->net_lanes(past - 1, sim->lane_words() - 1));
    EXPECT_THROW(sim->net(past), std::out_of_range);
    EXPECT_THROW(sim->net_lanes(past), std::out_of_range);
    EXPECT_THROW(sim->net_lanes(0, sim->lane_words()), std::out_of_range);
    EXPECT_THROW(sim->net_lanes(kInvalidNet), std::out_of_range);
  }
  EXPECT_THROW(wide.native().net_word(past), std::out_of_range);
  EXPECT_THROW(wide.native().net_word(0, 4), std::out_of_range);
}

TEST(GateSim, SetInputU64RejectsOversizedValue) {
  Builder b("m");
  Wire a = b.input("a", 2);
  b.output("o", a);
  Simulator sim(lower_to_gates(b.take()));
  sim.set_input("a", 3);  // widest value that fits
  EXPECT_EQ(sim.output("o").to_u64(), 3u);
  EXPECT_THROW(sim.set_input("a", 4), std::logic_error);
  EXPECT_THROW(sim.set_input("a", 0x100), std::logic_error);
  EXPECT_EQ(sim.output("o").to_u64(), 3u);  // failed set left state alone
}

namespace modes {

rtl::Module accumulator() {
  Builder b("acc");
  Wire en = b.input("en", 1);
  Wire d = b.input("d", 8);
  Wire q = b.reg("acc", 8);
  b.connect(q, b.mux(en, b.add(q, d), q));
  b.output("acc", q);
  return b.take();
}

rtl::Module mem_pipe() {
  Builder b("m");
  Wire waddr = b.input("waddr", 2);
  Wire raddr = b.input("raddr", 2);
  Wire data = b.input("d", 8);
  Wire wen = b.input("wen", 1);
  rtl::MemHandle mem = b.memory("ram", 4, 8);
  b.mem_write(mem, waddr, data, wen);
  b.output("q", b.mem_read(mem, raddr));
  return b.take();
}

}  // namespace modes

TEST(GateSim, EnginesAgreeCycleByCycle) {
  // The lane interpreter at 1 and 64 lanes against one event engine per
  // lane, every lane scored every cycle.
  const Netlist nl = lower_to_gates(modes::accumulator());
  CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned lanes : {1u, 64u})
    testutil::expect_lanes_match(
        nl, testutil::event(nl),
        testutil::models(std::make_unique<verify::GateModel>(
            nl, SimMode::kNative, lanes, fb, "fallback")),
        0x1234, 200);
}

TEST(GateSim, BitParallelLanesAreIndependent) {
  // Lane l accumulates its own operand stream through the 64-lane
  // interpreter; each lane must match a scalar reference model.
  Simulator sim = fallback_sim(lower_to_gates(modes::accumulator()), 64);
  std::uint8_t model[Simulator::kLanes] = {};
  for (unsigned c = 0; c < 40; ++c) {
    std::vector<std::uint64_t> d(8, 0);
    std::uint64_t en = 0;
    for (unsigned lane = 0; lane < Simulator::kLanes; ++lane) {
      const std::uint8_t operand =
          static_cast<std::uint8_t>(lane * 31 + c * 7 + 1);
      const bool enable = ((lane + c) % 3) != 0;
      for (unsigned b = 0; b < 8; ++b)
        d[b] |= static_cast<std::uint64_t>((operand >> b) & 1u) << lane;
      en |= static_cast<std::uint64_t>(enable) << lane;
      if (enable) model[lane] = static_cast<std::uint8_t>(model[lane] +
                                                          operand);
    }
    sim.set_input_lanes("d", d);
    sim.set_input_lanes("en", std::span<const std::uint64_t>(&en, 1));
    sim.step();
    for (unsigned lane = 0; lane < Simulator::kLanes; ++lane)
      ASSERT_EQ(sim.output_lane("acc", lane).to_u64(), model[lane])
          << "cycle " << c << " lane " << lane;
  }
}

TEST(GateSim, EventEngineTakesOneLaneWords) {
  // The event engine's one lane is bit 0 of each lane word: it must track a
  // by-value twin while the other bits carry noise, and a word count other
  // than the bus width must throw.
  const Netlist nl = lower_to_gates(modes::accumulator());
  Simulator words(nl, SimMode::kEvent), values(nl, SimMode::kEvent);
  for (unsigned c = 0; c < 40; ++c) {
    const std::uint64_t noise = 0x5a5a5a5a5a5a5a5aull * (c + 1);
    const std::uint64_t operand = (c * 37 + 11) & 0xff;
    const std::uint64_t enable = (c % 3) != 0 ? 1 : 0;
    std::vector<std::uint64_t> d(8);
    for (unsigned b = 0; b < 8; ++b)
      d[b] = (noise & ~1ull) | ((operand >> b) & 1u);
    const std::uint64_t en = (noise & ~1ull) | enable;
    words.set_input_lanes("d", d);
    words.set_input_lanes("en", std::span<const std::uint64_t>(&en, 1));
    values.set_input("d", operand);
    values.set_input("en", enable);
    words.step();
    values.step();
    ASSERT_EQ(words.output("acc"), values.output("acc")) << "cycle " << c;
    const std::vector<std::uint64_t> out = words.output_words("acc");
    ASSERT_EQ(out.size(), 8u);
    for (unsigned b = 0; b < 8; ++b)
      ASSERT_EQ(out[b], values.output("acc").bit(b) ? 1u : 0u)
          << "cycle " << c << " bit " << b;
  }
  const std::vector<std::uint64_t> two(2, 1);
  EXPECT_THROW(words.set_input_lanes("en", two), std::logic_error);
  EXPECT_THROW(words.set_input_lanes("d", two), std::logic_error);
}

TEST(GateSim, SameCycleMemWriteReachesReadPort) {
  const Netlist nl = lower_to_gates(modes::mem_pipe());
  Simulator event(nl, SimMode::kEvent);
  Simulator scalar = fallback_sim(nl, 1);
  Simulator wide = fallback_sim(nl, 64);
  for (Simulator* sim : {&event, &scalar, &wide}) {
    SCOPED_TRACE(::testing::Message() << sim_mode_name(sim->mode()) << " x"
                                      << sim->lanes());
    sim->set_input("waddr", 1);
    sim->set_input("raddr", 1);
    sim->set_input("d", 0x5a);
    sim->set_input("wen", 1);
    EXPECT_EQ(sim->output("q").to_u64(), 0u);
    sim->step();  // write commits AND the read port re-evaluates
    EXPECT_EQ(sim->output("q").to_u64(), 0x5au);
    // Disabled write leaves the word (and the read port) untouched.
    sim->set_input("d", 0x33);
    sim->set_input("wen", 0);
    sim->step();
    EXPECT_EQ(sim->output("q").to_u64(), 0x5au);
  }
}

TEST(GateSim, BitParallelLanesWriteDistinctMemoryWords) {
  Simulator sim = fallback_sim(lower_to_gates(modes::mem_pipe()), 64);
  // Lane l writes value 0x10+l to address l%4, all lanes enabled.
  std::vector<std::uint64_t> waddr(2, 0), d(8, 0);
  for (unsigned lane = 0; lane < Simulator::kLanes; ++lane) {
    const unsigned a = lane % 4;
    const unsigned v = 0x10 + lane;
    for (unsigned b = 0; b < 2; ++b)
      waddr[b] |= static_cast<std::uint64_t>((a >> b) & 1u) << lane;
    for (unsigned b = 0; b < 8; ++b)
      d[b] |= static_cast<std::uint64_t>((v >> b) & 1u) << lane;
  }
  sim.set_input_lanes("waddr", waddr);
  sim.set_input_lanes("raddr", waddr);  // read back what we wrote
  sim.set_input_lanes("d", d);
  sim.set_input("wen", 1);
  sim.step();
  for (unsigned lane : {0u, 5u, 42u, 63u})
    EXPECT_EQ(sim.output_lane("q", lane).to_u64(), 0x10u + lane)
        << "lane " << lane;
}

TEST(GateSim, StatsExposeEngineInternals) {
  Builder b("counter");
  Wire q = b.reg("count", 16);
  b.connect(q, b.add(q, b.constant(16, 1)));
  b.output("count", q);
  const Netlist nl = lower_to_gates(b.take());

  Simulator ev(nl, SimMode::kEvent);
  ev.step(64);
  EXPECT_EQ(ev.stats().cycles, 64u);
  EXPECT_GT(ev.stats().events, 0u);
  EXPECT_GE(ev.stats().queue_high_water, 1u);
  EXPECT_EQ(ev.stats().levels_evaluated, 0u);  // event engine has no levels

  Simulator lv = fallback_sim(nl, 1);  // the level sweep at one lane
  lv.step(64);
  EXPECT_EQ(lv.stats().cycles, 64u);
  EXPECT_GT(lv.stats().levels_evaluated, 0u);
  // A ripple counter's deep carry levels are quiescent most cycles.
  EXPECT_GT(lv.stats().levels_skipped, 0u);
  EXPECT_EQ(lv.stats().queue_high_water, 0u);
  EXPECT_EQ(lv.output("count").to_u64(), ev.output("count").to_u64());
}

TEST(GateSim, CycleCountTracksSteps) {
  Builder b("m");
  Wire q = b.reg("r", 1);
  b.connect(q, b.not_(q));
  b.output("q", q);
  Simulator sim(lower_to_gates(b.take()));
  sim.step(7);
  EXPECT_EQ(sim.cycle_count(), 7u);
  EXPECT_EQ(sim.output("q").to_u64(), 1u);
}

}  // namespace
}  // namespace osss::gate
