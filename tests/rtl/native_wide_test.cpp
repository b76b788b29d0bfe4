// native_wide_test.cpp — differential coverage of every tape opcode at the
// edges of its word: the multi-word instructions (the 25 `*N` opcodes,
// concat and memory reads wider than one word, variable shifts whose
// amount spans more than one word) and the 24 single-word `*1` opcodes at
// 1..64 bits.
//
// The interpreted evaluators share one definition per opcode: kTape's lane
// switch and the threaded handlers compute a single-word result in
// Exec::lane1 and a multi-word one in Exec::run_wide, reached through one
// opcode dispatch; the generated code computes single-word instructions
// itself and calls back into the engine for the rest.  One module
// generator builds both corpora from a width band.  The wide band builds
// 65–300-bit nodes (random_module caps widths at 40 bits, so the fuzz
// corpus never reaches a `*N` opcode), a wide register, a wide enabled
// register and a wide memory.  The narrow band builds 1–64-bit nodes,
// favouring 1, 2, 63 and 64 bits, with variable shifts by amounts past the
// width; random_module never emits ne, ule, slt, sle, lshri, sext or a
// reduction.  Every lane carries its own stimulus and is checked against
// one interpreter of its own (verify::ReplicaModel), so a wrong lane stride
// cannot hide behind broadcast values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
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

/// The widths a generated module's values take.
struct Band {
  unsigned lo, hi;
  const char* name;
};
constexpr Band kWide{65, 300, "wide"};
constexpr Band kNarrow{1, 64, "narrow"};

bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Builds one module from every operator at the band's widths.  Each
/// operator kind appears at least once, on operands picked from a pool of
/// values in the band (the narrow band's first pass at 64 bits); every
/// result drives an output, so the compiler prunes none of them.
struct OpGen {
  std::mt19937_64& rng;
  const Band band;
  Builder b{band.name};
  std::vector<Wire> pool;  ///< values inside the band
  Wire narrow;             ///< 40-bit input: addresses, selects, amounts
  unsigned outputs = 0;

  OpGen(std::mt19937_64& r, Band bd) : rng(r), band(bd) {}

  bool wide() const { return band.lo > 64; }
  unsigned width() {
    if (!wide() && rng() % 2 == 0) {
      // The edges of the word and both sides of each width-class boundary.
      static constexpr unsigned kEdges[] = {1, 2, 8, 9, 16, 17, 32, 33, 63, 64};
      return kEdges[rng() % std::size(kEdges)];
    }
    return band.lo + static_cast<unsigned>(rng() % (band.hi - band.lo + 1));
  }
  Wire pick() { return pool[rng() % pool.size()]; }
  /// A pool value adapted to `w` bits (a multi-word slice or zext when no
  /// value of that width turns up).
  Wire pick_w(unsigned w) {
    for (unsigned tries = 0; tries < 4; ++tries) {
      const Wire c = pick();
      if (c.width == w) return c;
    }
    const Wire c = pick();
    return c.width >= w ? b.trunc(c, w) : b.zext(c, w);
  }
  Wire bit() {
    return b.bit(narrow, static_cast<unsigned>(rng() % narrow.width));
  }
  /// `a` itself or another value of its width, so compares and equality
  /// tests see both outcomes.
  Wire maybe_same(Wire a) { return b.mux(bit(), a, pick_w(a.width)); }
  /// A shift amount: small enough to move bits, or any pool value (often
  /// past the width, nearly always in the wide band).
  Wire amount() {
    if (rng() % 2 != 0) return pick();
    if (wide()) return b.zext(b.slice(narrow, 8, 0), width());
    return b.slice(narrow, static_cast<unsigned>(rng() % 8), 0);
  }
  void out(Wire w) {
    b.output(std::string("o").append(std::to_string(outputs++)), w);
  }
  void keep(Wire w) {
    if (w.width > band.hi) w = b.trunc(w, band.hi);
    out(w);
    if (w.width >= band.lo) pool.push_back(w);
  }

  /// One instance of operator kind k (0..kKinds-1) on operand `a`.
  void op(unsigned k, Wire a) {
    switch (k) {
      case 0: keep(b.add(a, pick_w(a.width))); break;
      case 1: keep(b.sub(a, pick_w(a.width))); break;
      case 2: keep(b.mul(a, pick_w(a.width))); break;
      case 3: keep(b.and_(a, pick_w(a.width))); break;
      case 4: keep(b.or_(a, pick_w(a.width))); break;
      case 5: keep(b.xor_(a, pick_w(a.width))); break;
      case 6: keep(b.not_(a)); break;
      case 7:
        keep(b.shli(a, static_cast<unsigned>(rng() % (a.width + 1))));
        break;
      case 8:
        keep(b.lshri(a, static_cast<unsigned>(rng() % (a.width + 1))));
        break;
      case 9:
        keep(b.ashri(a, static_cast<unsigned>(rng() % (a.width + 1))));
        break;
      case 10: keep(b.shlv(a, amount())); break;
      case 11: keep(b.lshrv(a, amount())); break;
      case 12: out(b.eq(a, maybe_same(a))); break;
      case 13: out(b.ne(a, maybe_same(a))); break;
      case 14: out(b.ult(a, pick_w(a.width))); break;
      case 15: out(b.ule(a, maybe_same(a))); break;
      case 16: out(b.slt(a, pick_w(a.width))); break;
      case 17: out(b.sle(a, maybe_same(a))); break;
      case 18: keep(b.mux(bit(), a, pick_w(a.width))); break;
      case 19: {
        const unsigned lo = static_cast<unsigned>(rng() % a.width);
        const unsigned hi =
            lo + static_cast<unsigned>(rng() % (a.width - lo));
        keep(b.slice(a, hi, lo));
        break;
      }
      case 20: {
        // From a narrow or a wide value; a 1-bit source fills all ones
        // half the time, which red_and below relies on.
        const Wire src =
            rng() % 3 == 0 || a.width == 1 ? bit() : b.trunc(a, a.width - 1);
        keep(b.sext(src, std::max(width(), src.width + 1)));
        break;
      }
      case 21: out(b.red_or(b.and_(a, b.sext(bit(), a.width)))); break;
      case 22: out(b.red_and(b.or_(a, b.sext(bit(), a.width)))); break;
      case 23: out(b.red_xor(a)); break;
      case 24: {
        if (!wide()) {  // a concat that fits one word
          keep(b.concat({bit(), b.trunc(a, std::min(a.width, 63u))}));
          break;
        }
        // Zero-extension that grows the word count: from a narrow value or
        // from a wide one to more words.
        const Wire src = rng() % 2 == 0 ? b.slice(a, 63, 0) : a;
        keep(b.zext(src, std::min(band.hi, src.width + 64 +
                                     static_cast<unsigned>(rng() % 64))));
        break;
      }
      case 25: keep(b.concat({a, rng() % 2 == 0 ? bit() : pick()})); break;
      // Wide: a one-word value by a wide amount; narrow: by the 40-bit
      // input, mostly past the width.
      case 26:
        out(wide() ? b.shlv(b.slice(a, 40, 0), amount()) : b.shlv(a, narrow));
        break;
      case 27:
        out(wide() ? b.lshrv(b.slice(a, 40, 0), amount())
                   : b.lshrv(a, narrow));
        break;
    }
  }
  static constexpr unsigned kKinds = 28;

  Module build() {
    narrow = b.input("n", 40);
    pool.push_back(b.input("a", width()));
    pool.push_back(b.input("b", width()));
    const unsigned w0 = width(), w1 = width();
    Bits init0(w0), init1(w1);
    for (unsigned i = 0; i < w0; ++i) init0.set_bit(i, rng() % 2 != 0);
    for (unsigned i = 0; i < w1; ++i) init1.set_bit(i, rng() % 2 != 0);
    const Wire r0 = b.reg("r0", w0, init0);
    const Wire r1 = b.reg("r1", w1, init1);
    b.enable(r1, bit());
    pool.push_back(r0);
    pool.push_back(r1);
    const unsigned depth = 4u << (rng() % 3);  // 4 / 8 / 16 words
    const MemHandle m = b.memory("mem", depth, width());
    const unsigned aw = b.mem_addr_width(m);
    const unsigned mw = b.peek().memories()[m.index].data_width;
    pool.push_back(b.mem_read(m, b.slice(narrow, 20 + aw - 1, 20)));

    // Every kind once, in a random order (narrow: on a 64-bit operand),
    // then as many again at random.
    std::vector<unsigned> kinds(kKinds);
    for (unsigned k = 0; k < kKinds; ++k) kinds[k] = k;
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const unsigned k : kinds) op(k, wide() ? pick() : pick_w(64));
    for (unsigned i = 0; i < kKinds; ++i) {
      const auto k = static_cast<unsigned>(rng() % kKinds);
      op(k, pick());
    }

    b.mem_write(m, b.slice(narrow, 30 + aw - 1, 30), pick_w(mw), bit());
    b.connect(r0, pick_w(w0));
    b.connect(r1, pick_w(w1));
    return b.take();
  }
};

std::uint64_t module_seed(Band band, unsigned index) {
  return verify::StimGen::derive(verify::env_seed(7309),
                                 std::string("native-")
                                     .append(band.name)
                                     .append("/")
                                     .append(std::to_string(index)));
}

Module band_module(Band band, unsigned index) {
  std::mt19937_64 rng(module_seed(band, index));
  return OpGen(rng, band).build();
}

/// kInterp against kTape's lane switch and the forced threaded handlers at
/// 1 and 64 lanes.  Lane 0's stimulus follows `stim`; the other lanes are
/// uniform.
void expect_interpreters_match(Band band, unsigned index,
                               verify::StimConstraint stim = {}) {
  const Module m = band_module(band, index);
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned lanes : {1u, 64u})
    testutil::expect_lanes_match(
        m, testutil::interp(m),
        testutil::models(
            std::make_unique<verify::RtlModel>(m, SimMode::kTape, lanes),
            std::make_unique<verify::RtlModel>(m, SimMode::kNative, lanes,
                                               fb)),
        module_seed(band, index) + lanes, 20, 1, stim);
}

/// The real JIT: single-word instructions compiled, multi-word ones called
/// back into the engine.
void expect_jit_matches(Band band, unsigned index, unsigned lanes) {
  const Module m = band_module(band, index);
  auto jit = std::make_unique<verify::RtlModel>(m, SimMode::kNative, lanes);
  if (!jit_disabled()) {
    ASSERT_TRUE(jit->sim().native().native())
        << jit->sim().native().compile_log();
  }
  testutil::expect_lanes_match(m, testutil::interp(m),
                               testutil::models(std::move(jit)),
                               module_seed(band, index) + lanes, 8);
}

// --- kInterp vs kTape vs the threaded handlers ------------------------------

class NativeWideFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(NativeWideFuzz, TapeAndHandlersMatchInterpreter) {
  expect_interpreters_match(kWide, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeWideFuzz,
                         ::testing::Range(0u, verify::env_iters(16)));

class NativeNarrowFuzz : public ::testing::TestWithParam<unsigned> {};

/// Lane 0 leans on corner values (0, 1, all ones, the sign bit).
TEST_P(NativeNarrowFuzz, TapeAndHandlersMatchInterpreter) {
  verify::StimConstraint corner;
  corner.kind = verify::StimKind::kCorner;
  expect_interpreters_match(kNarrow, GetParam(), corner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeNarrowFuzz,
                         ::testing::Range(0u, verify::env_iters(16)));

// --- the generated code at 1, 64 and 256 lanes ------------------------------

using JitParam = std::tuple<unsigned, unsigned>;  ///< {module, lanes}
const auto kJitParams = ::testing::Combine(::testing::Range(0u, 2u),
                                           ::testing::Values(1u, 64u, 256u));

class NativeWideJit : public ::testing::TestWithParam<JitParam> {};

TEST_P(NativeWideJit, CompiledMatchesInterpreter) {
  expect_jit_matches(kWide, std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeWideJit, kJitParams);

class NativeNarrowJit : public ::testing::TestWithParam<JitParam> {};

TEST_P(NativeNarrowJit, CompiledMatchesInterpreter) {
  expect_jit_matches(kNarrow, std::get<0>(GetParam()),
                     std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeNarrowJit, kJitParams);

// --- coverage ---------------------------------------------------------------

/// The fuzz corpus compiles to every instruction that is wider than one
/// word, so the suites above reach all of them.
TEST(NativeWide, CorpusCoversEveryMultiWordInstruction) {
  std::set<tp::TOp> wide_ops;
  bool concat = false, memread = false, shlv = false, lshrv = false;
  for (unsigned i = 0; i < verify::env_iters(16); ++i) {
    const tp::Program p = tp::Program::compile(band_module(kWide, i));
    for (const tp::Instr& ins : p.instrs) {
      if (ins.op >= tp::TOp::kCopyN && ins.op <= tp::TOp::kRedXorN)
        wide_ops.insert(ins.op);
      concat |= ins.op == tp::TOp::kConcat && ins.dw > 1;
      memread |= ins.op == tp::TOp::kMemRead && ins.dw > 1;
      shlv |= ins.op == tp::TOp::kShlV1 && ins.aw > 1;
      lshrv |= ins.op == tp::TOp::kLshrV1 && ins.aw > 1;
    }
  }
  EXPECT_EQ(wide_ops.size(), 25u);
  for (auto op = static_cast<unsigned>(tp::TOp::kCopyN);
       op <= static_cast<unsigned>(tp::TOp::kRedXorN); ++op)
    EXPECT_TRUE(wide_ops.count(static_cast<tp::TOp>(op)) != 0)
        << "no instruction with opcode " << op;
  EXPECT_TRUE(concat) << "no concat wider than one word";
  EXPECT_TRUE(memread) << "no memory read wider than one word";
  EXPECT_TRUE(shlv) << "no shlv by a multi-word amount";
  EXPECT_TRUE(lshrv) << "no lshrv by a multi-word amount";
}

/// The narrow corpus compiles to all 24 single-word opcodes, and the
/// compares, reductions and kNot1 also occur on 64-bit operands, where a
/// mask or a sign bit sits in the word's top bit.
TEST(NativeNarrow, CorpusCoversEverySingleWordInstruction) {
  std::set<tp::TOp> ops, at64;
  for (unsigned i = 0; i < verify::env_iters(16); ++i) {
    const tp::Program p = tp::Program::compile(band_module(kNarrow, i));
    for (const tp::Instr& ins : p.instrs) {
      if (!tp::single_word(ins.op)) continue;
      ops.insert(ins.op);
      if (ins.op == tp::TOp::kNot1 ? ins.width == 64 : ins.a_width == 64)
        at64.insert(ins.op);
    }
  }
  EXPECT_EQ(ops.size(), 24u);
  for (unsigned op = 0; tp::single_word(static_cast<tp::TOp>(op)); ++op)
    EXPECT_TRUE(ops.count(static_cast<tp::TOp>(op)) != 0)
        << "no instruction with opcode " << op;
  using tp::TOp;
  for (const TOp op : {TOp::kEq1, TOp::kNe1, TOp::kUlt1, TOp::kUle1,
                       TOp::kSlt1, TOp::kSle1, TOp::kRedOr1, TOp::kRedAnd1,
                       TOp::kRedXor1, TOp::kNot1})
    EXPECT_TRUE(at64.count(op) != 0)
        << "no 64-bit instruction with opcode " << static_cast<unsigned>(op);
}

}  // namespace
}  // namespace osss::rtl
