// batch.cpp — the word-parallel lane transposes of batch.hpp.
//
// Both directions work on 64-lane groups (one lane word each) and, inside a
// group, on blocks of 8 lanes x 8 value bits.  A block is one 64-bit word
// holding an 8x8 bit matrix, transposed in three shift/xor/mask steps; the
// eight blocks of one value byte then trade bytes in one 8x8 byte transpose
// of eight words, which turns "block j, bit c" into "lane word of bit c,
// lanes 8j..8j+7".  A partial group (lanes % 64 != 0) runs its block loops
// over only the ceil(n / 8) blocks that hold lanes, through zero-padded
// local rows, and a partial byte (width % 8 != 0) goes through zero rows,
// so the block loops never test bounds.  A full group's loops keep the
// constant bound of eight blocks.

#include "par/batch.hpp"

#include <algorithm>
#include <type_traits>

namespace osss::par {
namespace {

constexpr unsigned kGroup = 64;  ///< lanes per lane word

/// Transposes the 8x8 bit matrix whose element (r, c) is bit 8r + c.
std::uint64_t transpose_bits(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000cccc0000ccccULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// Swaps the bytes of `a` selected by `m` << s with those of `b` selected
/// by `m`.
void swap_bytes(std::uint64_t& a, std::uint64_t& b, unsigned s,
                std::uint64_t m) {
  const std::uint64_t t = ((a >> s) ^ b) & m;
  b ^= t;
  a ^= t << s;
}

/// Transposes the 8x8 byte matrix whose element (j, c) is byte c of w[j].
void transpose_bytes(std::uint64_t* w) {
  for (unsigned j = 0; j < 4; ++j)
    swap_bytes(w[j], w[j + 4], 32, 0x00000000ffffffffULL);
  for (const unsigned j : {0u, 1u, 4u, 5u})
    swap_bytes(w[j], w[j + 2], 16, 0x0000ffff0000ffffULL);
  for (unsigned j = 0; j < 8; j += 2)
    swap_bytes(w[j], w[j + 1], 8, 0x00ff00ff00ff00ffULL);
}

/// One group: 64 values v[l * stride] -> the lane words of bits
/// 0..width-1, bit i at out[i * out_stride].  Only the first `blocks` blocks
/// of 8 lanes are read (the others count as zero): a std::integral_constant
/// 8 for a full group, so its block loops keep a constant bound.
template <class Blocks>
void group_to_words(const std::uint64_t* v, std::size_t stride,
                    unsigned width, std::uint64_t* out,
                    std::size_t out_stride, Blocks blocks) {
  for (unsigned k = 0; 8 * k < width; ++k) {
    // w[j]: byte k of lanes 8j..8j+7, transposed so that byte c holds
    // their bit 8k + c.
    std::uint64_t w[8];
    for (unsigned j = 0; j < blocks; ++j) {
      std::uint64_t x = 0;
      for (unsigned r = 0; r < 8; ++r)
        x |= ((v[(8 * j + r) * stride] >> (8 * k)) & 0xffu) << (8 * r);
      w[j] = transpose_bits(x);
    }
    for (unsigned j = blocks; j < 8; ++j) w[j] = 0;
    transpose_bytes(w);  // w[c]: the lane word of bit 8k + c
    const unsigned bits = std::min(8u, width - 8 * k);
    for (unsigned c = 0; c < bits; ++c) out[(8 * k + c) * out_stride] = w[c];
  }
}

/// One group: lane words col[i] (8 * ceil(width / 8) rows, those at or
/// above `width` zero) -> values v[l] of the first `blocks` blocks of 8
/// lanes (as for group_to_words).
template <class Blocks>
void words_to_group(const std::uint64_t* col, unsigned width,
                    std::uint64_t* v, Blocks blocks) {
  std::fill_n(v, 8 * blocks, 0);
  for (unsigned k = 0; 8 * k < width; ++k) {
    std::uint64_t w[8];
    std::copy_n(col + 8 * k, 8, w);
    transpose_bytes(w);  // w[j]: bits 8k..8k+7 of lanes 8j..8j+7
    for (unsigned j = 0; j < blocks; ++j) {
      const std::uint64_t x = transpose_bits(w[j]);  // byte r: lane 8j + r
      for (unsigned r = 0; r < 8; ++r)
        v[8 * j + r] |= ((x >> (8 * r)) & 0xffu) << (8 * k);
    }
  }
}

/// The block count of a full group.
constexpr std::integral_constant<unsigned, 8> kFullGroup{};

}  // namespace

void values_to_lane_words(const std::uint64_t* values, std::size_t stride,
                          unsigned lanes, unsigned width,
                          std::uint64_t* words) {
  const unsigned lw = (lanes + kGroup - 1) / kGroup;
  for (unsigned g = 0; g < lw; ++g) {
    const std::uint64_t* v = values + std::size_t{g} * kGroup * stride;
    const unsigned n = std::min(kGroup, lanes - g * kGroup);
    if (n == kGroup) {
      group_to_words(v, stride, width, words + g, lw, kFullGroup);
      continue;
    }
    const unsigned blocks = (n + 7) / 8;
    std::uint64_t pad[kGroup];
    for (unsigned l = 0; l < n; ++l) pad[l] = v[l * stride];
    std::fill(pad + n, pad + 8 * blocks, 0);
    group_to_words(pad, 1, width, words + g, lw, blocks);
  }
}

void lane_words_to_values(const std::uint64_t* words, unsigned lanes,
                          unsigned width, std::uint64_t* values,
                          std::size_t stride) {
  const unsigned lw = (lanes + kGroup - 1) / kGroup;
  const unsigned rows = 8 * ((width + 7) / 8);
  for (unsigned g = 0; g < lw; ++g) {
    std::uint64_t col[kGroup];
    for (unsigned i = 0; i < width; ++i)
      col[i] = words[std::size_t{i} * lw + g];
    std::fill(col + width, col + rows, 0);
    std::uint64_t v[kGroup];
    const unsigned n = std::min(kGroup, lanes - g * kGroup);
    if (n == kGroup)
      words_to_group(col, width, v, kFullGroup);
    else
      words_to_group(col, width, v, (n + 7) / 8);
    std::uint64_t* out = values + std::size_t{g} * kGroup * stride;
    for (unsigned l = 0; l < n; ++l) out[l * stride] = v[l];
  }
}

}  // namespace osss::par
