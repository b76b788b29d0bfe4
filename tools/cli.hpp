// cli.hpp — the numeric-argument rule shared by osss-lint and osss-opt.

#pragma once

#include <cstdint>
#include <string>

#include "par/env.hpp"

namespace osss::tools {

/// Most fuzz modules one run takes (the OSSS_FUZZ_ITERS cap).
constexpr std::uint64_t kMaxFuzz = 1000000;

/// `text` as a whole unsigned number no larger than `hi`: no sign, no
/// trailing junk, no wrap and no clamp.
inline bool parse_number(const std::string& text, std::uint64_t hi,
                         std::uint64_t& out) {
  const par::EnvValue v = par::parse_u64(text, 0, hi);
  if (v.status != par::EnvParseStatus::kOk || v.clamped) return false;
  out = v.value;
  return true;
}

}  // namespace osss::tools
