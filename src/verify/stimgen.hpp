// stimgen.hpp — constrained-random stimulus generation.
//
// One StimGen feeds every randomized suite in the repo: each declared input
// gets its own constraint (uniform, single-bit toggle, sticky bursts,
// corner-value biased) and its own deterministically derived random stream,
// so adding or reordering inputs never perturbs the vectors of the others —
// a failing seed printed by a test reproduces the identical stimulus later.
//
// Seed discipline (the determinism contract):
//   * every generator is constructed from one 64-bit seed;
//   * per-input streams are `derive(seed, input_name)` (splitmix64 over an
//     FNV-1a tag hash), so streams are independent but reproducible;
//   * suites derive their base seed with `derive(base, test_name)` and MUST
//     print it in any failure message;
//   * nightly fuzz runs override the base via OSSS_FUZZ_SEED and scale
//     iteration counts via OSSS_FUZZ_ITERS (see env_seed / env_iters).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sysc/bits.hpp"

namespace osss::verify {

using sysc::Bits;

/// How one input's vector sequence is shaped.
enum class StimKind : std::uint8_t {
  kUniform,    ///< every bit independently uniform each cycle
  kBitToggle,  ///< flip exactly one random bit per cycle (slow walkers)
  kSticky,     ///< hold a random value for a random burst, then re-roll
  kCorner,     ///< biased toward 0 / all-ones / 1 / sign-bit corners
};

const char* stim_kind_name(StimKind k);

struct StimConstraint {
  StimKind kind = StimKind::kUniform;
  unsigned burst_min = 2;      ///< kSticky: shortest hold, in cycles
  unsigned burst_max = 12;     ///< kSticky: longest hold, in cycles
  double corner_prob = 0.35;   ///< kCorner: probability of a corner value
};

class StimGen {
public:
  explicit StimGen(std::uint64_t seed);

  /// Mix a textual tag into a base seed (FNV-1a + splitmix64 finalizer).
  /// This is the one seed-derivation function in the repo; call sites
  /// derive per-test and per-input seeds through it so streams never
  /// collide or depend on declaration order.
  static std::uint64_t derive(std::uint64_t base, std::string_view tag);

  std::uint64_t seed() const noexcept { return seed_; }

  /// Declare an input; its stream starts at the derived per-name seed.
  void declare(const std::string& name, unsigned width,
               StimConstraint c = {});

  bool declared(const std::string& name) const;
  const std::vector<std::string>& names() const noexcept { return order_; }
  unsigned width_of(const std::string& name) const;

  /// Next scalar vector for an input (advances only that input's stream).
  Bits next(const std::string& name);

  /// Next lane-parallel stimulus for `lanes` lanes, written to `out` in the
  /// CoSim lane layout: input bit i occupies the ceil(lanes / 64) words
  /// from out[i * ceil(lanes / 64)], lane l in bit l % 64 of word l / 64.
  /// Lane 0 follows the declared constraint (identical to the scalar
  /// stream); the other lanes are uniform.  Up to 64 lanes draw the same
  /// words at every lane count.
  void next_lanes(const std::string& name, unsigned lanes,
                  std::uint64_t* out);

  /// Restart every stream from the construction seed.
  void restart();

private:
  struct Input {
    std::string name;
    unsigned width = 0;
    StimConstraint c;
    std::uint64_t state = 0;   ///< splitmix64 state (constrained stream)
    std::uint64_t lane_state = 0;  ///< splitmix64 state (lanes 1 and up)
    Bits held;                 ///< kSticky current value / kBitToggle walker
    unsigned hold_left = 0;    ///< kSticky cycles remaining
  };

  std::uint64_t seed_;
  std::vector<Input> inputs_;
  std::vector<std::string> order_;

  Input& find(const std::string& name);
  const Input& find(const std::string& name) const;
  static std::uint64_t next_u64(std::uint64_t& state);
  static Bits uniform_bits(std::uint64_t& state, unsigned width);
  Bits next_value(Input& in);
};

/// Base seed for fuzz suites: OSSS_FUZZ_SEED if set, else `fallback`.
/// Parsed through par::env_u64, so garbage / negative values fall back with
/// a stderr warning instead of silently truncating.  Nightly CI sets a
/// time-derived value so every run explores new vectors; the chosen seed
/// must be printed on failure.
std::uint64_t env_seed(std::uint64_t fallback);

/// Iteration count for fuzz suites: `base * OSSS_FUZZ_ITERS` when the
/// variable is set (multiplier clamped to [1, 1000000], product capped at
/// 1000000), else `base`.  Malformed values fall back with a warning.
unsigned env_iters(unsigned base);

}  // namespace osss::verify
