// shift_rule_test.cpp — one variable-shift rule at every level.
//
// A kShlV / kLshrV amount is read whole, as an unsigned number of any
// width, and an amount of at least the shifted width shifts every bit out
// (rtl::shift_count, the gate barrel shifter's rule).  The meta constant
// folder, every RTL evaluator and both gate engines are held to it on
// amounts around the width and at 2^32, 2^32 + 1 and 2^64, where reading
// only the low 32 or 64 bits of the amount would see a small shift.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gate/lower.hpp"
#include "meta/expr.hpp"
#include "rtl/builder.hpp"
#include "verify/cosim.hpp"

namespace osss {
namespace {

using sysc::Bits;

/// Port `kind` of amount width `w`: n<w> (amount), l<w> / r<w> (results).
std::string port(char kind, unsigned w) {
  return std::string(1, kind).append(std::to_string(w));
}

TEST(ShiftRule, EveryLevelReadsTheWholeAmount) {
  // a << n<w> and a >> n<w> on an 8-bit `a` for every amount width w.
  constexpr unsigned kWidths[] = {8, 33, 40, 64, 80};
  rtl::Builder b("shifts");
  const rtl::Wire a = b.input("a", 8);
  for (const unsigned w : kWidths) {
    const rtl::Wire n = b.input(port('n', w), w);
    b.output(port('l', w), b.shlv(a, n));
    b.output(port('r', w), b.lshrv(a, n));
  }
  const rtl::Module m = b.take();
  const gate::Netlist nl = gate::lower_to_gates(m);
  rtl::tape::CodegenOptions handlers;
  handlers.force_fallback = true;
  gate::CodegenOptions sweep;
  sweep.force_fallback = true;

  std::vector<std::unique_ptr<verify::Model>> levels;
  levels.push_back(std::make_unique<verify::RtlModel>(m));
  levels.push_back(
      std::make_unique<verify::RtlModel>(m, rtl::SimMode::kTape, 1));
  for (const unsigned lanes : {1u, 64u}) {
    const std::string x = std::to_string(lanes);
    levels.push_back(std::make_unique<verify::RtlModel>(
        m, rtl::SimMode::kNative, lanes, rtl::tape::CodegenOptions{},
        std::string("rtl:jit x").append(x)));
    levels.push_back(std::make_unique<verify::RtlModel>(
        m, rtl::SimMode::kNative, lanes, handlers,
        std::string("rtl:handlers x").append(x)));
  }
  levels.push_back(std::make_unique<verify::GateModel>(nl));
  levels.push_back(std::make_unique<verify::GateModel>(
      nl, gate::SimMode::kNative, 64, sweep));

  const Bits value(8, 0x81);
  for (const unsigned w : kWidths) {
    // w - 1 and w, then 2^32, 2^32 + 1 and 2^64 where they fit: the shift
    // each means for an 8-bit value is min(amount, 8).
    std::vector<Bits> amounts{Bits(w, 7), Bits(w, 8)};
    if (w > 32)
      for (const std::uint64_t k : {0ull, 1ull})
        amounts.emplace_back(w, (std::uint64_t{1} << 32) + k);
    if (w > 64) amounts.push_back(Bits(w, 1).shl(64));
    for (const Bits& amount : amounts) {
      SCOPED_TRACE(port('n', w).append(" = ").append(amount.to_hex_string()));
      const unsigned count = amount.to_u64() == 7 ? 7 : 8;
      const std::uint64_t want[] = {value.shl(count).to_u64(),
                                    value.lshr(count).to_u64()};
      const meta::BinOp ops[] = {meta::BinOp::kShl, meta::BinOp::kLshr};
      const std::string outs[] = {port('l', w), port('r', w)};
      for (unsigned i = 0; i < 2; ++i) {
        EXPECT_EQ(meta::binary(ops[i], meta::constant(value),
                               meta::constant(amount))
                      ->value.to_u64(),
                  want[i])
            << "meta fold";
        for (const auto& level : levels) {
          level->set_input("a", value);
          level->set_input(port('n', w), amount);
          const unsigned lane = level->lanes() - 1;
          EXPECT_EQ(level->output_lane(outs[i], lane).to_u64(), want[i])
              << level->name() << " lane " << lane;
        }
      }
    }
  }
}

}  // namespace
}  // namespace osss
