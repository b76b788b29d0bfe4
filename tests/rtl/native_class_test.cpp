// native_class_test.cpp — the width classes of the tape arena at their
// boundaries.
//
// Every tape slot holds a lane in the narrowest of u8, u16, u32 and u64
// that fits the widest value it holds (tape::class_of), and an
// instruction's operands can sit in other classes than its result: an
// alias group widens its representative's slot, the constant pool gives
// each constant its value's class, and a compare, slice, reduction, mux
// select or shift amount reads another width than it writes.  The
// generated code converts on every load and store, and the interpreted
// evaluators read through one class-aware load and write through one
// class-aware store.  These hand-built modules put every single-word
// opcode at results of 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63 and 64 bits
// and every class crossing the compiler makes in front of the generated
// code (at 1, 64 and 256 lanes), the threaded handlers (forced fallback)
// and kTape's lane switch (1 and 64 lanes), each lane driven with its own
// inputs and scored against one interpreter of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "rtl/builder.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/stimgen.hpp"

namespace osss::rtl {
namespace {

namespace tp = tape;

/// The result widths of the opcode module: both sides of every class
/// boundary, and the edges of the one-word range.
constexpr unsigned kWidths[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64};

std::uint64_t ones(unsigned w) { return w >= 64 ? ~0ull : (1ull << w) - 1; }

/// Every single-word opcode at every width of kWidths.  Per width w: two
/// w-bit inputs, all six binary operators (one against an inlined
/// constant), not, the three immediate shifts, both variable shifts by a
/// 7-bit amount (a narrower class than the data from 9 bits on) and by a
/// 64-bit one, the six compares and three reductions (1-bit results of
/// w-bit operands), a mux with a 1-bit select, a slice of a 64-bit input
/// to w bits and a sign extension from w - 1 bits.  No single-word slice
/// has a 64-bit result (it would be the whole source, which the compiler
/// aliases), and no sign extension a 1-bit one.
Module every_opcode() {
  Builder b("every_opcode");
  const Wire amt = b.input("amt", 7);
  const Wire amt64 = b.input("amt64", 64);
  const Wire sel = b.input("sel", 1);
  const Wire x64 = b.input("x64", 64);
  unsigned n = 0;
  const auto out = [&](Wire w) {
    b.output(std::string("o").append(std::to_string(n++)), w);
  };
  for (const unsigned w : kWidths) {
    const std::string s = std::to_string(w);
    const Wire x = b.input(std::string("a").append(s), w);
    const Wire y = b.input(std::string("b").append(s), w);
    out(b.add(x, y));
    out(b.add(x, b.constant(w, 0x5a5a5a5a5a5a5a5aull & ones(w))));
    out(b.sub(x, y));
    out(b.mul(x, y));
    out(b.and_(x, y));
    out(b.or_(x, y));
    out(b.xor_(x, y));
    out(b.not_(x));
    out(b.shli(x, w / 2));
    out(b.lshri(x, w / 2));
    out(b.ashri(x, w / 2));
    out(b.shlv(x, amt));
    out(b.lshrv(x, amt));
    out(b.shlv(y, amt64));
    out(b.lshrv(y, amt64));
    out(b.eq(x, y));
    out(b.ne(x, y));
    out(b.ult(x, y));
    out(b.ule(x, y));
    out(b.slt(x, y));
    out(b.sle(x, y));
    out(b.ult(x, b.constant(w, ones(w) / 3)));
    out(b.mux(sel, x, y));
    out(b.red_or(x));
    out(b.red_and(x));
    out(b.red_xor(x));
    if (w < 64) out(b.slice(x64, 63, 64 - w));
    if (w > 1) out(b.sext(b.trunc(y, w - 1), w));
  }
  return b.take();
}

/// The class crossings: zext and sext across each boundary, truncating
/// slices into narrower classes, concats of parts in three classes, a
/// byte-address memory read into u16 and a write port with a byte address
/// and u16 data, an alias group whose 12-bit member widens a 4-bit node's
/// slot to u16 (both used), and registers whose next value (and enable)
/// sit in a wider class than their q, one of them fed by another
/// register's widened q (a sampled commit input).
Module crossings() {
  Builder b("crossings");
  unsigned n = 0;
  const auto out = [&](Wire w) {
    b.output(std::string("o").append(std::to_string(n++)), w);
  };
  const std::pair<unsigned, unsigned> casts[] = {
      {8, 9}, {16, 17}, {32, 33}, {1, 16}, {7, 31}, {15, 63}, {31, 64},
      {8, 64}};
  for (const auto& [from, to] : casts) {
    const std::string s = std::to_string(from) + "_" + std::to_string(to);
    const Wire z = b.input(std::string("z").append(s), from);  // widened
    const Wire x = b.input(std::string("x").append(s), from);  // own class
    const Wire k = b.input(std::string("k").append(s), to);
    out(b.zext(z, to));                // the alias itself
    out(b.add(b.zext(z, to), k));      // a converting load of it
    out(b.sext(x, to));
    out(b.xor_(b.sext(x, to), k));
  }
  const Wire w64 = b.input("w64", 64);
  const Wire w32 = b.input("w32", 32);
  const Wire w16 = b.input("w16", 16);
  out(b.slice(w64, 13, 6));    // u64 -> u8
  out(b.slice(w64, 40, 26));   // u64 -> u16
  out(b.slice(w64, 50, 25));   // u64 -> u32
  out(b.slice(w32, 20, 5));    // u32 -> u16
  out(b.slice(w32, 31, 31));   // u32 -> u8
  out(b.slice(w16, 12, 4));    // u16 -> u16 / u8
  out(b.slice(w16, 7, 1));
  const Wire c1 = b.input("c1", 1);
  const Wire c2 = b.input("c2", 2);
  const Wire c9 = b.input("c9", 9);
  const Wire c12 = b.input("c12", 12);
  const Wire c17 = b.input("c17", 17);
  const Wire c20 = b.input("c20", 20);
  out(b.concat({c1, c12, c20}));   // u8 | u16 | u32 -> u64
  out(b.concat({c2, c9, c17}));    // u8 | u16 | u32 -> u32
  out(b.concat({c17, c2, c9}));
  out(b.concat({c2, c9, b.constant(3, 5), c1}));

  const MemHandle m = b.memory("m", 12, 16);
  const Wire ra = b.input("ra", 4);  // 12..15 lie past the depth
  const Wire wa = b.input("wa", 4);
  const Wire wd = b.input("wd", 16);
  const Wire we = b.input("we", 1);
  b.mem_write(m, wa, wd, we);
  out(b.mem_read(m, ra));
  out(b.add(b.mem_read(m, wa), wd));

  // An alias group: x4's slot takes the class of its 12-bit member.
  const Wire p4 = b.input("p4", 4);
  const Wire q4 = b.input("q4", 4);
  const Wire r12 = b.input("r12", 12);
  const Wire x4 = b.xor_(p4, q4);
  b.output("x4", x4);
  b.output("x4_12", b.add(b.zext(x4, 12), r12));

  // Registers whose d (and enable) sit in a wider class than their q.
  const Wire p8 = b.input("p8", 8);
  const Wire q8 = b.input("q8", 8);
  const Wire e = b.input("e", 1);
  const Wire y8 = b.add(p8, q8);
  b.output("y8_12", b.add(b.zext(y8, 12), r12));
  b.output("e_16", b.add(b.zext(e, 16), b.zext(r12, 16)));
  const Wire r8 = b.reg("r8", 8, 0x3c);
  b.connect(r8, y8);
  const Wire r8e = b.reg("r8e", 8, 0xc3);
  b.connect(r8e, y8);
  b.enable(r8e, e);
  b.output("r8", r8);
  b.output("r8e", r8e);
  // s8's q is widened to u16 by its zext, which feeds s16: s16's d is s8's
  // q slot, which the edge overwrites first, so it is sampled.
  const Wire s8 = b.reg("s8", 8, 0x81);
  b.connect(s8, p8);
  const Wire s16 = b.reg("s16", 16, 0x1234);
  b.connect(s16, b.zext(s8, 16));
  b.output("s16", s16);
  b.output("s8_16", b.add(b.zext(s8, 16), b.zext(r12, 16)));
  return b.take();
}

bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Generated code, the threaded handlers (forced fallback) and, at 1 and
/// 64 lanes, kTape's lane switch against one interpreter per lane.
void expect_classes_match(const Module& m, std::uint64_t seed,
                          unsigned lanes) {
  std::vector<std::unique_ptr<verify::Model>> duts;
  auto jit = std::make_unique<verify::RtlModel>(
      m, SimMode::kNative, lanes, tp::CodegenOptions{}, "rtl:native");
  if (!jit_disabled()) {
    ASSERT_TRUE(jit->sim().native().native())
        << jit->sim().native().compile_log();
  }
  duts.push_back(std::move(jit));
  tp::CodegenOptions handlers;
  handlers.force_fallback = true;
  duts.push_back(std::make_unique<verify::RtlModel>(
      m, SimMode::kNative, lanes, handlers, "rtl:handlers"));
  if (lanes <= 64)
    duts.push_back(
        std::make_unique<verify::RtlModel>(m, SimMode::kTape, lanes));
  testutil::expect_lanes_match(m, testutil::interp(m), std::move(duts), seed,
                               40, 2);
}

class NativeClass : public ::testing::TestWithParam<unsigned> {};

TEST_P(NativeClass, EveryOpcodeMatchesTheInterpreter) {
  expect_classes_match(every_opcode(),
                       verify::StimGen::derive(verify::env_seed(7301),
                                               "native/class/opcodes"),
                       GetParam());
}

TEST_P(NativeClass, EveryCrossingMatchesTheInterpreter) {
  expect_classes_match(crossings(),
                       verify::StimGen::derive(verify::env_seed(7301),
                                               "native/class/crossings"),
                       GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lanes, NativeClass, ::testing::Values(1u, 64u, 256u),
                         [](const ::testing::TestParamInfo<unsigned>& i) {
                           return std::string("x").append(
                               std::to_string(i.param));
                         });

/// The class rule: a slot's class is that of the widest value it holds,
/// so every node's slot holds its own width, and the crossings module
/// really builds the widened slots its comment names.
TEST(NativeClassRule, SlotsHoldTheirWidestValue) {
  for (const unsigned lanes : {1u, 64u}) {
    SCOPED_TRACE(std::string("x").append(std::to_string(lanes)));
    for (const Module& m : {every_opcode(), crossings()}) {
      const tp::Program p = tp::Program::compile(m, lanes);
      for (NodeId id = 0; id < p.node_slot.size(); ++id) {
        if (p.node_slot[id] == tp::kNoSlot) continue;
        EXPECT_GE(p.node_cls[id], tp::class_of(p.node_width[id]))
            << m.name() << " node " << id << " (" << p.node_width[id]
            << " bits) in class " << int{p.node_cls[id]};
      }
    }
    const Module m = crossings();
    const tp::Program p = tp::Program::compile(m, lanes);
    const auto reg = [&](const char* name) -> const tp::Program::Reg& {
      for (std::size_t r = 0; r < m.registers().size(); ++r)
        if (m.registers()[r].name == name) return p.regs[r];
      throw std::logic_error(name);
    };
    // x4 = p4 ^ q4 shares its slot with a 12-bit zext: u16.
    bool widened = false;
    for (const tp::Instr& ins : p.instrs)
      widened |= ins.op == tp::TOp::kXor1 && ins.width == 4 && ins.dc == 1;
    EXPECT_TRUE(widened) << "the 4-bit xor's slot is not u16";
    EXPECT_EQ(reg("r8").qc, 0);
    EXPECT_EQ(reg("r8").dc, 1);  // y8, widened by its 12-bit zext
    EXPECT_EQ(reg("r8e").ec, 1);  // e, widened by its 16-bit zext
    EXPECT_EQ(reg("s8").qc, 1);   // widened by the zext that feeds s16
    EXPECT_NE(reg("s16").d_at, tp::kNoSlot);
  }
}

/// The opcode module compiles every single-word opcode at every width of
/// kWidths (the operand width for compares and reductions) but the two
/// exceptions of its comment, and the crossings module reaches every
/// class crossing of its comment.
TEST(NativeClassRule, ModulesCoverEveryOpcodeAndCrossing) {
  const tp::Program p = tp::Program::compile(every_opcode(), 64);
  std::map<tp::TOp, std::set<unsigned>> widths;
  for (const tp::Instr& ins : p.instrs) {
    const bool operand =
        (ins.op >= tp::TOp::kEq1 && ins.op <= tp::TOp::kSle1) ||
        ins.op >= tp::TOp::kRedOr1;
    widths[ins.op].insert(operand ? ins.a_width : ins.width);
  }
  for (unsigned op = 0; op < static_cast<unsigned>(tp::TOp::kCopyN); ++op) {
    const auto top = static_cast<tp::TOp>(op);
    for (const unsigned w : kWidths) {
      if ((top == tp::TOp::kSlice1 && w == 64) ||
          (top == tp::TOp::kSExt1 && w == 1))
        continue;
      EXPECT_TRUE(widths[top].count(w) != 0)
          << "opcode " << op << " at " << w << " bits";
    }
  }

  const tp::Program c = tp::Program::compile(crossings(), 64);
  std::set<std::pair<unsigned, unsigned>> concat_classes, slice_classes,
      sext_classes;
  bool mread = false;
  for (const tp::Instr& ins : c.instrs) {
    if (ins.op == tp::TOp::kConcat) {
      std::set<unsigned> parts;
      for (std::uint32_t k = 0; k < ins.c; ++k)
        parts.insert(c.parts[ins.param + k].cls);
      concat_classes.insert({ins.dc, static_cast<unsigned>(parts.size())});
    }
    if (ins.op == tp::TOp::kSlice1) slice_classes.insert({ins.ac, ins.dc});
    if (ins.op == tp::TOp::kSExt1) sext_classes.insert({ins.ac, ins.dc});
    mread |= ins.op == tp::TOp::kMemRead && ins.ac == 0 && ins.dc == 1;
  }
  EXPECT_TRUE(concat_classes.count({3, 3}) != 0) << "3 classes into u64";
  EXPECT_TRUE(concat_classes.count({2, 3}) != 0) << "3 classes into u32";
  for (const auto& [from, to] : {std::pair{3u, 0u}, {3u, 1u}, {3u, 2u},
                                 {2u, 1u}, {2u, 0u}, {1u, 0u}})
    EXPECT_TRUE(slice_classes.count({from, to}) != 0)
        << "slice from class " << from << " into " << to;
  for (const auto& [from, to] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 3u}})
    EXPECT_TRUE(sext_classes.count({from, to}) != 0)
        << "sext from class " << from << " into " << to;
  EXPECT_TRUE(mread) << "byte address, u16 result";
  ASSERT_EQ(c.mems.size(), 1u);
  ASSERT_EQ(c.mems[0].writes.size(), 1u);
  EXPECT_EQ(c.mems[0].writes[0].ac, 0);
  EXPECT_EQ(c.mems[0].writes[0].dc, 1);
}

}  // namespace
}  // namespace osss::rtl
