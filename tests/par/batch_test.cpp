// Batch simulation across the pool: block results must match a hand-rolled
// serial simulator exactly, be bit-identical for every pool size, agree
// between one lane and 64, carry ports wider than a word at every lane
// count, and reject malformed blocks.  The lane transposes must match a
// per-bit reference for every width and lane count.

#include "par/batch.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "par/pool.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"

namespace osss::par {
namespace {

// Gated accumulator: inputs en[1], d[8] (declaration order), output acc[8].
rtl::Module accumulator() {
  rtl::Builder b("acc");
  rtl::Wire en = b.input("en", 1);
  rtl::Wire d = b.input("d", 8);
  rtl::Wire q = b.reg("acc", 8);
  b.connect(q, b.mux(en, b.add(q, d), q));
  b.output("acc", q);
  return b.take();
}

/// One-lane blocks of the accumulator: 9 slots per cycle, en (slot 0) then
/// d's bits (slots 1..8), each a random word — lane 0 is bit 0, and the
/// bits of the lanes past it are noise the runner must ignore.
std::vector<StimulusBlock> make_one_lane_blocks(unsigned blocks,
                                                unsigned cycles,
                                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<StimulusBlock> out;
  for (unsigned i = 0; i < blocks; ++i) {
    StimulusBlock b = StimulusBlock::make(cycles, 9);
    for (std::uint64_t& w : b.in) w = rng();
    out.push_back(std::move(b));
  }
  return out;
}

/// Lane 0's value of the `width`-bit port whose bits sit at slots
/// [first, first + width) of a one-lane row.
std::uint64_t lane0(const std::uint64_t* row, unsigned first,
                    unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) v |= (row[first + i] & 1u) << i;
  return v;
}

const std::uint64_t* in_row(const StimulusBlock& b, unsigned c) {
  return &b.in[static_cast<std::size_t>(c) * b.in_slots];
}
const std::uint64_t* out_row(const StimulusBlock& b, unsigned c) {
  return &b.out[static_cast<std::size_t>(c) * b.out_slots];
}

/// Every output word of a one-lane block carries lane 0 only.
void expect_lanes_past_one_zero(const StimulusBlock& b) {
  for (std::size_t i = 0; i < b.out.size(); ++i)
    ASSERT_EQ(b.out[i] >> 1, 0u) << "slot word " << i;
}

TEST(Batch, GateScalarMatchesSerialReference) {
  const gate::Netlist nl = gate::lower_to_gates(accumulator());
  std::vector<StimulusBlock> blocks = make_one_lane_blocks(6, 40, 7);
  const std::vector<StimulusBlock> stim = blocks;  // pristine inputs

  Pool pool(4);
  gate::run_batch(nl, gate::SimMode::kNative, blocks, &pool);

  gate::Simulator ref(nl);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_EQ(blocks[i].out_slots, 8u);
    expect_lanes_past_one_zero(blocks[i]);
    ref.reset();
    for (unsigned c = 0; c < stim[i].cycles; ++c) {
      ref.set_input("en", lane0(in_row(stim[i], c), 0, 1));
      ref.set_input("d", lane0(in_row(stim[i], c), 1, 8));
      ref.step();
      ASSERT_EQ(lane0(out_row(blocks[i], c), 0, 8),
                ref.output("acc").to_u64())
          << "block " << i << " cycle " << c;
    }
  }
}

TEST(Batch, GateScalarIdenticalForEveryPoolSize) {
  const gate::Netlist nl = gate::lower_to_gates(accumulator());
  std::vector<StimulusBlock> serial = make_one_lane_blocks(9, 64, 11);
  std::vector<StimulusBlock> wide = serial;
  Pool p1(1), p8(8);
  gate::run_batch(nl, gate::SimMode::kEvent, serial, &p1);
  gate::run_batch(nl, gate::SimMode::kEvent, wide, &p8);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].out, wide[i].out) << "block " << i;
}

TEST(Batch, GateScalarMasksOversizedValues) {
  // A one-lane slot may carry a full random word; both engines must read
  // lane 0 (bit 0) only, not trip a width check or mix in other bits.
  const gate::Netlist nl = gate::lower_to_gates(accumulator());
  for (const gate::SimMode mode :
       {gate::SimMode::kEvent, gate::SimMode::kNative}) {
    SCOPED_TRACE(gate::sim_mode_name(mode));
    std::vector<StimulusBlock> blocks(1, StimulusBlock::make(4, 9));
    for (unsigned c = 0; c < 4; ++c) {
      blocks[0].in_at(c, 0) = 0xffffffffffffffffull;  // en: lane 0 is 1
      for (unsigned bit = 0; bit < 8; ++bit)           // d: lane 0 is 0xa5
        blocks[0].in_at(c, 1 + bit) =
            0xa5a5a5a5a5a5a5a4ull | ((0xa5u >> bit) & 1u);
    }
    Pool pool(1);
    ASSERT_NO_THROW(gate::run_batch(nl, mode, blocks, &pool));
    EXPECT_EQ(lane0(out_row(blocks[0], 3), 0, 8), (4 * 0xa5) & 0xff);
    expect_lanes_past_one_zero(blocks[0]);
  }
}

TEST(Batch, GateLaneModeAgreesWithScalar) {
  const gate::Netlist nl = gate::lower_to_gates(accumulator());
  constexpr unsigned kCycles = 32;
  // 9 lane slots: en bit (slot 0) then d bits (slots 1..8), one 64-lane
  // word each — the one-lane layout with 64 lanes per word.
  std::mt19937_64 rng(23);
  std::vector<StimulusBlock> lane_blocks(
      1, StimulusBlock::make(kCycles, 9, gate::Simulator::kLanes));
  for (unsigned c = 0; c < kCycles; ++c)
    for (unsigned s = 0; s < 9; ++s) lane_blocks[0].in_at(c, s) = rng();
  Pool pool(2);
  gate::run_batch(nl, gate::SimMode::kNative, lane_blocks, &pool);
  ASSERT_EQ(lane_blocks[0].out_slots, 8u);

  for (unsigned lane = 0; lane < gate::Simulator::kLanes; ++lane) {
    std::vector<StimulusBlock> scalar(1, StimulusBlock::make(kCycles, 9));
    for (unsigned c = 0; c < kCycles; ++c)
      for (unsigned s = 0; s < 9; ++s)
        scalar[0].in_at(c, s) = lane_blocks[0].in_at(c, s) >> lane;
    gate::run_batch(nl, gate::SimMode::kEvent, scalar, &pool);
    for (unsigned c = 0; c < kCycles; ++c)
      for (unsigned bit = 0; bit < 8; ++bit)
        ASSERT_EQ((lane_blocks[0].out_at(c, bit) >> lane) & 1,
                  scalar[0].out_at(c, bit))
            << "lane " << lane << " cycle " << c << " bit " << bit;
  }
}

TEST(Batch, RtlTapeMatchesInterpAndSerialReference) {
  const rtl::Module m = accumulator();
  std::vector<StimulusBlock> tape = make_one_lane_blocks(5, 48, 31);
  std::vector<StimulusBlock> interp = tape;
  const std::vector<StimulusBlock> stim = tape;
  Pool pool(4);
  rtl::run_batch(m, rtl::SimMode::kTape, tape, &pool);
  rtl::run_batch(m, rtl::SimMode::kInterp, interp, &pool);
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(tape[i].out, interp[i].out) << "block " << i;
    expect_lanes_past_one_zero(tape[i]);
  }

  rtl::Simulator ref(m, rtl::SimMode::kInterp);
  const rtl::InputHandle en = ref.input_handle("en");
  const rtl::InputHandle d = ref.input_handle("d");
  const rtl::OutputHandle acc = ref.output_handle("acc");
  for (std::size_t i = 0; i < tape.size(); ++i) {
    ref.reset();
    for (unsigned c = 0; c < stim[i].cycles; ++c) {
      ref.set_input(en, lane0(in_row(stim[i], c), 0, 1));
      ref.set_input(d, lane0(in_row(stim[i], c), 1, 8));
      ref.step();
      ASSERT_EQ(lane0(out_row(tape[i], c), 0, 8), ref.output_u64(acc))
          << "block " << i << " cycle " << c;
    }
  }
}

/// A 100-bit port needs two words per lane, so bits 64..99 travel in their
/// own slots at every lane count.  Both runners, every engine, at 1 and 64
/// lanes, must reproduce per-lane direct simulation on every bit.
TEST(Batch, WidePortsMatchDirectSimulationAtEveryLaneCount) {
  constexpr unsigned kWidth = 100, kCycles = 12;
  rtl::Builder bld("wide");
  rtl::Wire a = bld.input("a", kWidth);
  rtl::Wire q = bld.reg("q", kWidth);
  bld.connect(q, bld.add(q, a));  // carries cross bit 63 into bit 64
  bld.output("o", bld.xor_(q, a));
  const rtl::Module m = bld.take();
  const gate::Netlist nl = gate::lower_to_gates(m);

  for (const unsigned lanes : {1u, 64u}) {
    SCOPED_TRACE(::testing::Message() << lanes << " lanes");
    const unsigned lw = (lanes + 63) / 64;
    // Per-lane stimulus and the direct reference (the RTL interpreter, one
    // lane at a time, Bits in and out).
    std::mt19937_64 rng(100 + lanes);
    std::vector<std::vector<sysc::Bits>> in(lanes), want(lanes);
    StimulusBlock blk = StimulusBlock::make(kCycles, kWidth * lw, lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      rtl::Simulator ref(m);
      for (unsigned c = 0; c < kCycles; ++c) {
        sysc::Bits v(kWidth);
        for (unsigned i = 0; i < kWidth; ++i) v.set_bit(i, (rng() & 1) != 0);
        for (unsigned i = 0; i < kWidth; ++i)
          if (v.bit(i)) blk.in_at(c, i * lw + l / 64) |= 1ull << (l % 64);
        ref.set_input("a", v);
        ref.step();
        want[l].push_back(ref.output("o"));
      }
    }
    const auto check = [&](const std::vector<StimulusBlock>& got,
                           const char* engine) {
      SCOPED_TRACE(engine);
      const StimulusBlock& b = got.front();
      ASSERT_EQ(b.out_slots, kWidth * lw);
      for (unsigned l = 0; l < lanes; ++l)
        for (unsigned c = 0; c < kCycles; ++c)
          for (unsigned i = 0; i < kWidth; ++i)
            ASSERT_EQ((b.out_at(c, i * lw + l / 64) >> (l % 64)) & 1u,
                      want[l][c].bit(i) ? 1u : 0u)
                << "lane " << l << " cycle " << c << " bit " << i;
    };
    Pool pool(2);
    std::vector<rtl::SimMode> rtl_modes = {rtl::SimMode::kTape,
                                           rtl::SimMode::kNative};
    std::vector<gate::SimMode> gate_modes = {gate::SimMode::kNative};
    if (lanes == 1) {
      rtl_modes.push_back(rtl::SimMode::kInterp);
      gate_modes.push_back(gate::SimMode::kEvent);
    }
    for (const rtl::SimMode mode : rtl_modes) {
      std::vector<StimulusBlock> blocks(1, blk);
      rtl::run_batch(m, mode, blocks, &pool);
      check(blocks, rtl::sim_mode_name(mode));
    }
    for (const gate::SimMode mode : gate_modes) {
      std::vector<StimulusBlock> blocks(1, blk);
      gate::run_batch(nl, mode, blocks, &pool);
      check(blocks, gate::sim_mode_name(mode));
    }
  }
}

// --- lane transposes ------------------------------------------------------

/// Per-bit reference for values_to_lane_words.
std::vector<std::uint64_t> naive_lane_words(const std::vector<std::uint64_t>& v,
                                            std::size_t stride, unsigned lanes,
                                            unsigned width) {
  const unsigned lw = (lanes + 63) / 64;
  std::vector<std::uint64_t> words(std::size_t{width} * lw, 0);
  for (unsigned i = 0; i < width; ++i)
    for (unsigned l = 0; l < lanes; ++l)
      words[std::size_t{i} * lw + l / 64] |= ((v[l * stride] >> i) & 1u)
                                             << (l % 64);
  return words;
}

/// Per-bit reference for lane_words_to_values; lanes past `lanes` and the
/// slots between strided values keep their old contents.
void naive_values(const std::vector<std::uint64_t>& words, unsigned lanes,
                  unsigned width, std::vector<std::uint64_t>& v,
                  std::size_t stride) {
  const unsigned lw = (lanes + 63) / 64;
  for (unsigned l = 0; l < lanes; ++l) {
    std::uint64_t x = 0;
    for (unsigned i = 0; i < width; ++i)
      x |= ((words[std::size_t{i} * lw + l / 64] >> (l % 64)) & 1u) << i;
    v[l * stride] = x;
  }
}

TEST(BatchLaneTranspose, BothDirectionsMatchPerBitReference) {
  std::mt19937_64 rng(97);
  for (const unsigned lanes :
       {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 72u, 200u, 256u, 512u}) {
    const unsigned lw = (lanes + 63) / 64;
    for (unsigned width = 1; width <= 64; ++width) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "lanes " << lanes << " width "
                                          << width << " stride " << stride);
        // Values with random bits at and above the width.
        std::vector<std::uint64_t> values(lanes * stride);
        for (std::uint64_t& v : values) v = rng();
        // Every output word is overwritten; the two guard words past the
        // end are not.
        const std::uint64_t guard = rng();
        std::vector<std::uint64_t> words(std::size_t{width} * lw + 2, guard);
        values_to_lane_words(values.data(), stride, lanes, width,
                             words.data());
        std::vector<std::uint64_t> want_words =
            naive_lane_words(values, stride, lanes, width);
        want_words.insert(want_words.end(), 2, guard);
        ASSERT_EQ(words, want_words);

        // Lane words with random bits in the lanes past the count.
        std::vector<std::uint64_t> in(std::size_t{width} * lw);
        for (std::uint64_t& w : in) w = rng();
        std::vector<std::uint64_t> got(lanes * stride + 3);
        for (std::uint64_t& v : got) v = rng();
        std::vector<std::uint64_t> want = got;
        lane_words_to_values(in.data(), lanes, width, got.data(), stride);
        naive_values(in, lanes, width, want, stride);
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(BatchLaneTranspose, RoundTripKeepsTheLowWidthBits) {
  std::mt19937_64 rng(98);
  for (const unsigned lanes : {1u, 65u, 512u}) {
    for (const unsigned width : {1u, 7u, 8u, 9u, 33u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "lanes " << lanes << " width "
                                        << width);
      const std::uint64_t mask =
          width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;
      std::vector<std::uint64_t> values(lanes);
      for (std::uint64_t& v : values) v = rng();
      std::vector<std::uint64_t> words(std::size_t{width} * ((lanes + 63) / 64));
      values_to_lane_words(values.data(), 1, lanes, width, words.data());
      std::vector<std::uint64_t> back(lanes);
      lane_words_to_values(words.data(), lanes, width, back.data(), 1);
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ(back[l], values[l] & mask) << "lane " << l;
    }
  }
}

TEST(Batch, RejectsMalformedBlocks) {
  const rtl::Module m = accumulator();
  const gate::Netlist nl = gate::lower_to_gates(accumulator());
  Pool pool(1);

  std::vector<StimulusBlock> bad_lanes(1, StimulusBlock::make(4, 9, 7));
  EXPECT_THROW(gate::run_batch(nl, gate::SimMode::kNative, bad_lanes,
                               &pool),
               std::invalid_argument);
  bad_lanes.front().lanes = 0;
  EXPECT_THROW(gate::run_batch(nl, gate::SimMode::kNative, bad_lanes,
                               &pool),
               std::invalid_argument);

  // 64-lane blocks need the native engine.
  std::vector<StimulusBlock> lanes(
      1, StimulusBlock::make(4, 9, gate::Simulator::kLanes));
  EXPECT_THROW(gate::run_batch(nl, gate::SimMode::kEvent, lanes, &pool),
               std::invalid_argument);
  std::vector<StimulusBlock> rlanes(1, StimulusBlock::make(4, 10, 64));
  EXPECT_THROW(rtl::run_batch(m, rtl::SimMode::kInterp, rlanes, &pool),
               std::invalid_argument);

  // One lane takes one slot per port bit (9), not one per port (2).
  std::vector<StimulusBlock> bad_shape(1, StimulusBlock::make(4, 2));
  EXPECT_THROW(gate::run_batch(nl, gate::SimMode::kEvent, bad_shape,
                               &pool),
               std::invalid_argument);
  EXPECT_THROW(rtl::run_batch(m, rtl::SimMode::kInterp, bad_shape, &pool),
               std::invalid_argument);

  std::vector<StimulusBlock> mixed;
  mixed.push_back(StimulusBlock::make(4, 9));
  mixed.push_back(StimulusBlock::make(4, 9, gate::Simulator::kLanes));
  EXPECT_THROW(gate::run_batch(nl, gate::SimMode::kNative, mixed, &pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace osss::par
