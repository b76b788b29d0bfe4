#include "verify/stimgen.hpp"

#include <stdexcept>

#include "par/env.hpp"

namespace osss::verify {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* stim_kind_name(StimKind k) {
  switch (k) {
    case StimKind::kUniform: return "uniform";
    case StimKind::kBitToggle: return "bit-toggle";
    case StimKind::kSticky: return "sticky";
    case StimKind::kCorner: return "corner";
  }
  return "?";
}

StimGen::StimGen(std::uint64_t seed) : seed_(seed) {}

std::uint64_t StimGen::derive(std::uint64_t base, std::string_view tag) {
  // FNV-1a over the tag, mixed with the base, finalized by one splitmix
  // round so nearby bases and similar tags land far apart.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : tag) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  std::uint64_t state = base ^ h;
  return splitmix64(state);
}

void StimGen::declare(const std::string& name, unsigned width,
                      StimConstraint c) {
  if (width == 0) throw std::invalid_argument("StimGen: zero-width input");
  if (declared(name))
    throw std::invalid_argument("StimGen: duplicate input " + name);
  if (c.burst_min == 0) c.burst_min = 1;
  if (c.burst_max < c.burst_min) c.burst_max = c.burst_min;
  Input in;
  in.name = name;
  in.width = width;
  in.c = c;
  in.state = derive(seed_, name);
  in.lane_state = derive(seed_, name + "#lanes");
  inputs_.push_back(std::move(in));
  order_.push_back(name);
}

bool StimGen::declared(const std::string& name) const {
  for (const Input& in : inputs_)
    if (in.name == name) return true;
  return false;
}

unsigned StimGen::width_of(const std::string& name) const {
  return find(name).width;
}

StimGen::Input& StimGen::find(const std::string& name) {
  for (Input& in : inputs_)
    if (in.name == name) return in;
  throw std::invalid_argument("StimGen: undeclared input " + name);
}

const StimGen::Input& StimGen::find(const std::string& name) const {
  for (const Input& in : inputs_)
    if (in.name == name) return in;
  throw std::invalid_argument("StimGen: undeclared input " + name);
}

std::uint64_t StimGen::next_u64(std::uint64_t& state) {
  return splitmix64(state);
}

Bits StimGen::uniform_bits(std::uint64_t& state, unsigned width) {
  Bits v(width);
  for (unsigned i = 0; i < width; i += 64) {
    const std::uint64_t word = splitmix64(state);
    const unsigned chunk = width - i < 64 ? width - i : 64;
    for (unsigned j = 0; j < chunk; ++j)
      v.set_bit(i + j, ((word >> j) & 1u) != 0);
  }
  return v;
}

Bits StimGen::next_value(Input& in) {
  switch (in.c.kind) {
    case StimKind::kUniform:
      return uniform_bits(in.state, in.width);
    case StimKind::kBitToggle: {
      if (in.held.width() != in.width)
        in.held = uniform_bits(in.state, in.width);
      const unsigned bit =
          static_cast<unsigned>(next_u64(in.state) % in.width);
      in.held.set_bit(bit, !in.held.bit(bit));
      return in.held;
    }
    case StimKind::kSticky: {
      if (in.hold_left == 0 || in.held.width() != in.width) {
        in.held = uniform_bits(in.state, in.width);
        const unsigned span = in.c.burst_max - in.c.burst_min + 1;
        in.hold_left =
            in.c.burst_min + static_cast<unsigned>(next_u64(in.state) % span);
      }
      --in.hold_left;
      return in.held;
    }
    case StimKind::kCorner: {
      const std::uint64_t roll = next_u64(in.state);
      const double u =
          static_cast<double>(roll >> 11) / 9007199254740992.0;  // [0,1)
      if (u >= in.c.corner_prob) return uniform_bits(in.state, in.width);
      Bits v(in.width);
      switch (next_u64(in.state) % 5) {
        case 0: break;  // all zero
        case 1: v = Bits::ones(in.width); break;
        case 2: v.set_bit(0, true); break;  // one
        case 3: v.set_bit(in.width - 1, true); break;  // sign bit only
        default:  // max positive: all ones except the sign bit
          v = Bits::ones(in.width);
          v.set_bit(in.width - 1, false);
          break;
      }
      return v;
    }
  }
  return Bits(in.width);
}

Bits StimGen::next(const std::string& name) { return next_value(find(name)); }

void StimGen::next_lanes(const std::string& name, unsigned lanes,
                         std::uint64_t* out) {
  Input& in = find(name);
  const Bits lane0 = next_value(in);
  const unsigned lw = (lanes + 63) / 64;
  for (unsigned i = 0; i < in.width; ++i) {
    std::uint64_t* words = out + std::size_t{i} * lw;
    for (unsigned g = 0; g < lw; ++g) words[g] = next_u64(in.lane_state);
    words[0] = (words[0] & ~1ull) | (lane0.bit(i) ? 1u : 0u);
  }
}

void StimGen::restart() {
  for (Input& in : inputs_) {
    in.state = derive(seed_, in.name);
    in.lane_state = derive(seed_, in.name + "#lanes");
    in.held = Bits();
    in.hold_left = 0;
  }
}

std::uint64_t env_seed(std::uint64_t fallback) {
  return par::env_u64("OSSS_FUZZ_SEED", fallback, 0,
                      ~static_cast<std::uint64_t>(0));
}

unsigned env_iters(unsigned base) {
  constexpr std::uint64_t kCap = 1000000;
  const std::uint64_t mul = par::env_u64("OSSS_FUZZ_ITERS", 1, 1, kCap);
  const std::uint64_t scaled = static_cast<std::uint64_t>(base) * mul;
  return scaled > kCap ? static_cast<unsigned>(kCap)
                       : static_cast<unsigned>(scaled);
}

}  // namespace osss::verify
