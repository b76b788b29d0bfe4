// native_wide_test.cpp — differential coverage of the multi-word tape
// instructions: the 25 `*N` opcodes, concat and memory reads wider than one
// word, and variable shifts whose amount spans more than one word.
//
// The generated code computes single-word instructions only and calls back
// into the engine for these, so kTape's lane switch, the threaded handlers
// and the JIT all reach the same per-lane code (Exec::run_wide) through
// different dispatch.  The module generator below builds 65–300-bit nodes
// (random_module caps widths at 40 bits, so the fuzz corpus never reaches a
// `*N` opcode), a wide register, a wide enabled register and a wide memory.
// Every lane carries its own stimulus and is checked against one
// interpreter of its own (verify::ReplicaModel), so a wrong lane stride
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

constexpr unsigned kMinWide = 65, kMaxWide = 300;

bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Builds one module from every multi-word operator.  Each operator kind
/// appears at least once, on operands picked from a pool of wide values;
/// every result drives an output, so the compiler prunes none of them.
struct WideGen {
  std::mt19937_64& rng;
  Builder b{"wide"};
  std::vector<Wire> pool;  ///< 65..300-bit values
  Wire narrow;             ///< 40-bit input: addresses, selects, amounts
  unsigned outputs = 0;

  explicit WideGen(std::mt19937_64& r) : rng(r) {}

  unsigned width() {
    return kMinWide + static_cast<unsigned>(rng() % (kMaxWide - kMinWide + 1));
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
  /// A shift amount: small enough to move bits, or any wide value (nearly
  /// always past the width).
  Wire amount() {
    return rng() % 2 == 0 ? b.zext(b.slice(narrow, 8, 0), width()) : pick();
  }
  void out(Wire w) {
    b.output(std::string("o").append(std::to_string(outputs++)), w);
  }
  void keep(Wire w) {
    if (w.width > kMaxWide) w = b.trunc(w, kMaxWide);
    out(w);
    if (w.width >= kMinWide) pool.push_back(w);
  }

  /// One instance of operator kind k (0..kKinds-1).
  void op(unsigned k) {
    const Wire a = pick();
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
        const Wire src = rng() % 3 == 0 ? bit() : b.trunc(a, a.width - 1);
        keep(b.sext(src, std::max(width(), src.width + 1)));
        break;
      }
      case 21: out(b.red_or(b.and_(a, b.sext(bit(), a.width)))); break;
      case 22: out(b.red_and(b.or_(a, b.sext(bit(), a.width)))); break;
      case 23: out(b.red_xor(a)); break;
      case 24: {
        // Zero-extension that grows the word count: from a narrow value or
        // from a wide one to more words.
        const Wire src = rng() % 2 == 0 ? b.slice(a, 63, 0) : a;
        keep(b.zext(src, std::min(kMaxWide, src.width + 64 +
                                    static_cast<unsigned>(rng() % 64))));
        break;
      }
      case 25: keep(b.concat({a, rng() % 2 == 0 ? bit() : pick()})); break;
      case 26: out(b.shlv(b.slice(a, 40, 0), amount())); break;
      case 27: out(b.lshrv(b.slice(a, 40, 0), amount())); break;
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

    // Every kind once, in a random order, then as many again at random.
    std::vector<unsigned> kinds(kKinds);
    for (unsigned k = 0; k < kKinds; ++k) kinds[k] = k;
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const unsigned k : kinds) op(k);
    for (unsigned i = 0; i < kKinds; ++i)
      op(static_cast<unsigned>(rng() % kKinds));

    b.mem_write(m, b.slice(narrow, 30 + aw - 1, 30), pick_w(mw), bit());
    b.connect(r0, pick_w(w0));
    b.connect(r1, pick_w(w1));
    return b.take();
  }
};

std::uint64_t module_seed(unsigned index) {
  return verify::StimGen::derive(
      verify::env_seed(7309),
      std::string("native-wide/").append(std::to_string(index)));
}

Module wide_module(unsigned index) {
  std::mt19937_64 rng(module_seed(index));
  return WideGen(rng).build();
}

// --- kInterp vs kTape vs the threaded handlers ------------------------------

class NativeWideFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(NativeWideFuzz, TapeAndHandlersMatchInterpreter) {
  const Module m = wide_module(GetParam());
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned lanes : {1u, 64u})
    testutil::expect_lanes_match(
        m, testutil::interp(m),
        testutil::models(
            std::make_unique<verify::RtlModel>(m, SimMode::kTape, lanes),
            std::make_unique<verify::RtlModel>(m, SimMode::kNative, lanes,
                                               fb)),
        module_seed(GetParam()) + lanes, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeWideFuzz,
                         ::testing::Range(0u, verify::env_iters(16)));

// --- the generated code -----------------------------------------------------

class NativeWideJit
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

/// The real JIT at 1, 64 and 256 lanes: single-word instructions compiled,
/// multi-word ones called back into the engine.
TEST_P(NativeWideJit, CompiledMatchesInterpreter) {
  const auto [index, lanes] = GetParam();
  const Module m = wide_module(index);
  auto jit = std::make_unique<verify::RtlModel>(m, SimMode::kNative, lanes);
  if (!jit_disabled()) {
    ASSERT_TRUE(jit->sim().native().native())
        << jit->sim().native().compile_log();
  }
  testutil::expect_lanes_match(m, testutil::interp(m),
                               testutil::models(std::move(jit)),
                               module_seed(index) + lanes, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeWideJit,
                         ::testing::Combine(::testing::Range(0u, 2u),
                                            ::testing::Values(1u, 64u, 256u)));

// --- coverage ---------------------------------------------------------------

/// The fuzz corpus compiles to every instruction that is wider than one
/// word, so the suites above reach all of them.
TEST(NativeWide, CorpusCoversEveryMultiWordInstruction) {
  std::set<tp::TOp> wide_ops;
  bool concat = false, memread = false, shlv = false, lshrv = false;
  for (unsigned i = 0; i < verify::env_iters(16); ++i) {
    const tp::Program p = tp::Program::compile(wide_module(i));
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

}  // namespace
}  // namespace osss::rtl
