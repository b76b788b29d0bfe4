// batch.hpp — stimulus blocks for batch simulation across pool workers.
//
// A StimulusBlock is one self-contained simulation job: `cycles` rows of
// `in_slots` pre-generated input words, starting from power-on reset,
// producing `cycles` rows of `out_slots` sampled output words.
// Blocks are independent by construction (each starts from reset), so a
// batch of blocks can run on any worker in any order and the per-block
// outputs are bit-identical for every thread count.
//
// Layout: flat row-major arrays of bit-sliced lane words, one layout at
// every lane count (1 or a multiple of 64).  Bit i of the ports
// concatenated LSB-first (inputs for `in`, outputs for `out`) occupies
// ceil(lanes / 64) consecutive slots of its cycle's row, low lanes first;
// lane l is bit l % 64 of slot l / 64 of that run.  So in_slots is the sum
// of the input widths times ceil(lanes / 64), and at one lane every port bit
// is one word whose bit 0 carries the value.  Bits of lanes past `lanes` are
// ignored on input and read zero on output.
//
// The gate and RTL engines take and give this layout at their lane I/O
// (`set_input_lanes` / `output_words`), so a runner hands block memory to
// the engine without copying.  The two lane transposes below convert
// between it and one value per lane; every lane I/O path of those engines
// that changes layout goes through them.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/pool.hpp"

namespace osss::par {

struct StimulusBlock {
  unsigned cycles = 0;
  unsigned lanes = 1;  ///< 1 or a multiple of 64
  unsigned in_slots = 0;
  unsigned out_slots = 0;
  std::vector<std::uint64_t> in;   ///< [cycle * in_slots + slot]
  std::vector<std::uint64_t> out;  ///< [cycle * out_slots + slot], filled by run_batch

  static StimulusBlock make(unsigned cycles, unsigned in_slots,
                            unsigned lanes = 1) {
    StimulusBlock b;
    b.cycles = cycles;
    b.lanes = lanes;
    b.in_slots = in_slots;
    b.in.assign(static_cast<std::size_t>(cycles) * in_slots, 0);
    return b;
  }

  std::uint64_t& in_at(unsigned cycle, unsigned slot) {
    return in[static_cast<std::size_t>(cycle) * in_slots + slot];
  }
  std::uint64_t in_at(unsigned cycle, unsigned slot) const {
    return in[static_cast<std::size_t>(cycle) * in_slots + slot];
  }
  std::uint64_t out_at(unsigned cycle, unsigned slot) const {
    return out[static_cast<std::size_t>(cycle) * out_slots + slot];
  }
};

/// The scaffold of gate::run_batch and rtl::run_batch over a design with
/// ports of `in_widths`/`out_widths` bits: one slot per port bit and lane
/// word.  Checks the blocks' lanes (one count, 1 or a multiple of 64 up to
/// `max_lanes`) and input shape (std::invalid_argument naming `who`), sizes
/// their outputs and runs them in chunks across `pool` (nullptr =
/// Pool::global()).  A chunk borrows an idle engine or builds one with
/// make() (a std::unique_ptr), so set-up and JIT compile are paid once per
/// worker, not per chunk.  run(engine, block) simulates one block from
/// power-on.
template <class Make, class Run>
void run_blocks(std::span<StimulusBlock> blocks,
                const std::vector<unsigned>& in_widths,
                const std::vector<unsigned>& out_widths, unsigned max_lanes,
                Pool* pool, const char* who, Make make, Run run) {
  if (blocks.empty()) return;
  const unsigned lanes = blocks.front().lanes;
  if (lanes == 0 || (lanes != 1 && (lanes % 64 != 0 || lanes > max_lanes)))
    throw std::invalid_argument(std::string(who) +
                                ": lanes must be 1 or a multiple of 64 up to " +
                                std::to_string(max_lanes));
  const unsigned lane_words = (lanes + 63) / 64;
  const auto slots = [&](const std::vector<unsigned>& widths) {
    unsigned n = 0;
    for (const unsigned w : widths) n += w * lane_words;
    return n;
  };
  const unsigned in_slots = slots(in_widths), out_slots = slots(out_widths);
  for (StimulusBlock& b : blocks) {
    if (b.lanes != lanes)
      throw std::invalid_argument(std::string(who) + ": mixed-lane batch");
    if (b.in_slots != in_slots ||
        b.in.size() != static_cast<std::size_t>(b.cycles) * in_slots)
      throw std::invalid_argument(std::string(who) +
                                  ": block stimulus shape does not match the "
                                  "design's interface");
    b.out_slots = out_slots;
    b.out.assign(static_cast<std::size_t>(b.cycles) * out_slots, 0);
  }
  Pool& p = pool != nullptr ? *pool : Pool::global();
  const std::size_t chunks =
      std::min(blocks.size(), static_cast<std::size_t>(p.size()) * 2);
  const std::size_t per = (blocks.size() + chunks - 1) / chunks;
  std::mutex mu;
  std::vector<decltype(make())> idle;
  p.parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t lo = chunk * per;
    const std::size_t hi = std::min(blocks.size(), lo + per);
    if (lo >= hi) return;
    decltype(make()) engine;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!idle.empty()) {
        engine = std::move(idle.back());
        idle.pop_back();
      }
    }
    if (!engine) engine = make();
    for (std::size_t i = lo; i < hi; ++i) run(*engine, blocks[i]);
    std::lock_guard<std::mutex> lk(mu);
    idle.push_back(std::move(engine));
  });
}

/// One value per lane -> bit-sliced lane words.  Lane l's value is
/// values[l * stride]; bit i of it (i < width, 1 <= width <= 64) becomes
/// bit l % 64 of words[i * ceil(lanes / 64) + l / 64].  Value bits at or
/// above `width` are ignored, and the bits of lanes past `lanes` in the last
/// lane word are zero.  Writes width * ceil(lanes / 64) words.
void values_to_lane_words(const std::uint64_t* values, std::size_t stride,
                          unsigned lanes, unsigned width,
                          std::uint64_t* words);

/// Bit-sliced lane words -> one value per lane, the inverse of
/// values_to_lane_words: writes values[l * stride] for every l < lanes, with
/// bits at or above `width` zero.  Lane-word bits of lanes past `lanes` are
/// ignored.
void lane_words_to_values(const std::uint64_t* words, unsigned lanes,
                          unsigned width, std::uint64_t* values,
                          std::size_t stride);

}  // namespace osss::par
