// native_commit_test.cpp — the tape engine's clock edge: the sampling rule
// and the commits that read unsampled inputs in place.
//
// A commit rewrites only register q slots, so Program::compile flags for a
// pre-edge copy exactly the commit inputs whose arena range overlaps some
// register's q range; everything else is read in place.  The random-module
// corpus almost never feeds one register from another, so these designs
// are built by hand around that case: a shift chain, a swap, an enable
// driven by another register, a register that holds itself, and write
// ports driven by register outputs.  Each runs through the generated code
// and the threaded handlers (forced fallback) at 1, 64 and 256 lanes, and
// kTape's lane switch up to its 64-lane cap, against one interpreter per
// lane, every lane scored.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "jit/jit.hpp"
#include "rtl/builder.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/stimgen.hpp"

namespace osss::rtl {
namespace {

namespace tp = tape;

/// in -> r1 -> r2 -> r3, declared in chain order so r2 commits after r1
/// has been overwritten; a 100-bit pair repeats it across two words.
Module shift_chain() {
  Builder b("shift_chain");
  const Wire in = b.input("in", 8);
  const Wire wide = b.input("wide", 100);
  const Wire r1 = b.reg("r1", 8, 0x11);
  const Wire r2 = b.reg("r2", 8, 0x22);
  const Wire r3 = b.reg("r3", 8, 0x33);
  b.connect(r1, in);
  b.connect(r2, r1);
  b.connect(r3, r2);
  const Wire w1 = b.reg("w1", 100, 5);
  const Wire w2 = b.reg("w2", 100, 6);
  b.connect(w1, wide);
  b.connect(w2, w1);
  b.output("o1", r1);
  b.output("o2", r2);
  b.output("o3", r3);
  b.output("ow", w2);
  return b.take();
}

/// Two registers that swap on `sw`: each lane's state is the parity of
/// its swap count.
Module swap_pair() {
  Builder b("swap_pair");
  const Wire sw = b.input("sw", 1);
  const Wire a = b.reg("a", 8, 0x5a);
  const Wire c = b.reg("c", 8, 0xc3);
  b.connect(a, c);
  b.connect(c, a);
  b.enable(a, sw);
  b.enable(c, sw);
  b.output("a", a);
  b.output("c", c);
  return b.take();
}

/// `en` is a register output that gates a one-word and a two-word
/// register; `en` is declared first, so it commits before they read it.
Module enable_from_register() {
  Builder b("enable_from_register");
  const Wire e = b.input("e", 1);
  const Wire x = b.input("x", 16);
  const Wire wx = b.input("wx", 70);
  const Wire en = b.reg("en", 1, 0);
  b.connect(en, e);
  const Wire r = b.reg("r", 16, 7);
  b.connect(r, x);
  b.enable(r, en);
  const Wire w = b.reg("w", 70, 9);
  b.connect(w, wx);
  b.enable(w, en);
  b.output("r", r);
  b.output("w", w);
  b.output("en", en);
  return b.take();
}

/// `h` holds itself (its next value is its own q); `k` counts beside it.
Module self_hold() {
  Builder b("self_hold");
  const Wire inc = b.input("inc", 4);
  const Wire h = b.reg("h", 12, 0xabc);
  b.connect(h, h);
  const Wire k = b.reg("k", 12, 0);
  b.connect(k, b.add(k, b.zext(inc, 12)));
  b.output("h", h);
  b.output("k", k);
  b.output("hk", b.xor_(h, k));
  return b.take();
}

/// Port 0 of `m` writes through registered address, data and enable (the
/// registers commit first, so the port must see their pre-edge values);
/// port 1 writes the same memory from inputs, read in place.  A 100-bit
/// memory repeats the registered port on the multi-word commit path.
Module registered_write_ports() {
  Builder b("registered_write_ports");
  const Wire a = b.input("a", 3);
  const Wire d = b.input("d", 8);
  const Wire e = b.input("e", 1);
  const Wire a2 = b.input("a2", 3);
  const Wire d2 = b.input("d2", 8);
  const Wire e2 = b.input("e2", 1);
  const Wire ra = b.input("ra", 3);
  const Wire wd = b.input("wd", 100);
  const Wire qa = b.reg("qa", 3, 0);
  const Wire qd = b.reg("qd", 8, 0);
  const Wire qe = b.reg("qe", 1, 0);
  const Wire qw = b.reg("qw", 100, 0);
  b.connect(qa, a);
  b.connect(qd, d);
  b.connect(qe, e);
  b.connect(qw, wd);
  const MemHandle m = b.memory("m", 6, 8);  // addresses 6 and 7: no write
  b.mem_write(m, qa, qd, qe);
  b.mem_write(m, a2, d2, e2);
  const MemHandle mw = b.memory("mw", 8, 100);
  b.mem_write(mw, qa, qw, qe);
  b.output("rd", b.mem_read(m, ra));
  b.output("rw", b.mem_read(mw, ra));
  b.output("qa", qa);
  return b.take();
}

struct Design {
  const char* name;
  Module (*build)();
};
const Design kDesigns[] = {
    {"shift_chain", shift_chain},
    {"swap_pair", swap_pair},
    {"enable_from_register", enable_from_register},
    {"self_hold", self_hold},
    {"registered_write_ports", registered_write_ports},
};

/// Program's rule restated over arena words: the words some register's q
/// range covers.
std::vector<char> q_words(const tp::Program& p) {
  std::vector<char> q(p.arena_size, 0);
  for (const tp::Program::Reg& r : p.regs)
    for (std::size_t w = 0; w < std::size_t{r.words} * p.lanes; ++w)
      q[r.q + w] = 1;
  return q;
}

/// Checks one commit input: sampled exactly when a q word lies in its
/// range, and then at a scratch range no other sample uses.
void expect_sampled_iff_overwritten(const tp::Program& p,
                                    const std::vector<char>& q,
                                    std::vector<char>& used, std::uint32_t off,
                                    std::uint32_t at, std::size_t words,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  if (off == tp::kNoSlot) {
    EXPECT_EQ(at, tp::kNoSlot);
    return;
  }
  const std::size_t n = words * p.lanes;
  bool overwritten = false;
  for (std::size_t w = 0; w < n; ++w) overwritten |= q[off + w] != 0;
  EXPECT_EQ(at != tp::kNoSlot, overwritten);
  if (at == tp::kNoSlot) return;
  ASSERT_LE(at + n, p.sample_words);
  for (std::size_t w = 0; w < n; ++w) {
    EXPECT_EQ(used[at + w], 0) << "scratch word " << at + w << " reused";
    used[at + w] = 1;
  }
}

/// Every sampled input of `p`, checked against the word-level rule; the
/// scratch holds nothing else.
void expect_rule_holds(const tp::Program& p) {
  const std::vector<char> q = q_words(p);
  std::vector<char> used(p.sample_words, 0);
  for (std::size_t r = 0; r < p.regs.size(); ++r) {
    const tp::Program::Reg& reg = p.regs[r];
    const std::string at = "reg " + std::to_string(r);
    expect_sampled_iff_overwritten(p, q, used, reg.d, reg.d_at, reg.words,
                                   at + " d");
    expect_sampled_iff_overwritten(p, q, used, reg.en, reg.en_at, 1,
                                   at + " en");
  }
  for (std::size_t mi = 0; mi < p.mems.size(); ++mi)
    for (std::size_t k = 0; k < p.mems[mi].writes.size(); ++k) {
      const tp::Program::WritePort& w = p.mems[mi].writes[k];
      const std::string at =
          "mem " + std::to_string(mi) + " port " + std::to_string(k);
      expect_sampled_iff_overwritten(p, q, used, w.addr, w.addr_at,
                                     w.addr_words, at + " addr");
      expect_sampled_iff_overwritten(p, q, used, w.data, w.data_at,
                                     p.mems[mi].words, at + " data");
      expect_sampled_iff_overwritten(p, q, used, w.en, w.en_at, 1,
                                     at + " en");
    }
  for (std::size_t w = 0; w < used.size(); ++w)
    EXPECT_EQ(used[w], 1) << "scratch word " << w << " holds no sample";
}

bool sampled(std::uint32_t at) { return at != tp::kNoSlot; }

/// Exactly the inputs a register commit could overwrite are flagged, at
/// every lane count, and the step scratch holds only their copies.
TEST(NativeCommit, ProgramSamplesExactlyTheOverwrittenInputs) {
  for (const unsigned lanes : {1u, 64u, 256u}) {
    SCOPED_TRACE("x" + std::to_string(lanes));
    for (const Design& d : kDesigns) {
      SCOPED_TRACE(d.name);
      expect_rule_holds(tp::Program::compile(d.build(), lanes));
    }

    // Register order follows declaration order.
    const tp::Program chain = tp::Program::compile(shift_chain(), lanes);
    ASSERT_EQ(chain.regs.size(), 5u);
    EXPECT_FALSE(sampled(chain.regs[0].d_at));  // r1 <- in
    EXPECT_TRUE(sampled(chain.regs[1].d_at));   // r2 <- r1
    EXPECT_TRUE(sampled(chain.regs[2].d_at));   // r3 <- r2
    EXPECT_FALSE(sampled(chain.regs[3].d_at));  // w1 <- wide
    EXPECT_TRUE(sampled(chain.regs[4].d_at));   // w2 <- w1
    EXPECT_EQ(chain.sample_words, std::size_t{lanes} * (1 + 1 + 2));

    const tp::Program swap = tp::Program::compile(swap_pair(), lanes);
    for (const tp::Program::Reg& r : swap.regs) {
      EXPECT_TRUE(sampled(r.d_at));
      EXPECT_FALSE(sampled(r.en_at));  // an input
    }

    const tp::Program gated =
        tp::Program::compile(enable_from_register(), lanes);
    EXPECT_FALSE(sampled(gated.regs[0].d_at));
    for (std::size_t r = 1; r < 3; ++r) {
      EXPECT_FALSE(sampled(gated.regs[r].d_at));
      EXPECT_TRUE(sampled(gated.regs[r].en_at));
    }

    const tp::Program hold = tp::Program::compile(self_hold(), lanes);
    EXPECT_TRUE(sampled(hold.regs[0].d_at));   // its own q
    EXPECT_FALSE(sampled(hold.regs[1].d_at));  // an adder result

    const tp::Program ports =
        tp::Program::compile(registered_write_ports(), lanes);
    const tp::Program::WritePort& reg_port = ports.mems[0].writes[0];
    const tp::Program::WritePort& in_port = ports.mems[0].writes[1];
    const tp::Program::WritePort& wide_port = ports.mems[1].writes[0];
    for (const tp::Program::WritePort* w : {&reg_port, &wide_port}) {
      EXPECT_TRUE(sampled(w->addr_at));
      EXPECT_TRUE(sampled(w->data_at));
      EXPECT_TRUE(sampled(w->en_at));
    }
    EXPECT_FALSE(sampled(in_port.addr_at));
    EXPECT_FALSE(sampled(in_port.data_at));
    EXPECT_FALSE(sampled(in_port.en_at));
    for (const tp::Program::Reg& r : ports.regs) EXPECT_FALSE(sampled(r.d_at));
  }
}

bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Generated code, the threaded handlers (forced fallback) and, up to its
/// 64-lane cap, kTape's lane switch against one interpreter per lane.
void expect_commits_match(const Module& m, std::uint64_t seed,
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
                               60, 2);
}

class NativeCommit : public ::testing::TestWithParam<unsigned> {};

TEST_P(NativeCommit, EveryEvaluatorMatchesTheInterpreter) {
  const unsigned lanes = GetParam();
  for (const Design& d : kDesigns) {
    SCOPED_TRACE(d.name);
    const std::uint64_t seed = verify::StimGen::derive(
        verify::env_seed(7301), std::string("native/commit/") + d.name);
    expect_commits_match(d.build(), seed, lanes);
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, NativeCommit, ::testing::Values(1u, 64u, 256u),
                         [](const ::testing::TestParamInfo<unsigned>& i) {
                           return "x" + std::to_string(i.param);
                         });

/// The one-word memory read driver at every vector tier (the AVX-512 one
/// gathers eight lanes per instruction) against a lane loop, over 256
/// lanes of a 5-row memory.  Addresses come in depth, just past it and
/// near 2^63 and 2^64, where a signed in-depth compare would let the
/// gather read far outside the memory.  A module's addresses are never
/// that wide, so the driver is compiled on its own.
TEST(NativeMemRead, GatherMatchesTheLaneLoopAtEveryTier) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT";
  constexpr unsigned kLanes = 256, kDepth = 5;
  const std::string src =
      std::string(jit::prelude_header()) + "constexpr int L = " +
      std::to_string(kLanes) + ";\n" + jit::vector_prelude() +
      jit::step_prelude() +
      "}  // namespace\n"
      "extern \"C\" u64 osss_mread(u64* d, const u64* m, const u64* a) {\n"
      "  return v_mread<" +
      std::to_string(kLanes) + ", " + std::to_string(kDepth) +
      ", 1>(d, m, a);\n}\n";
  std::mt19937_64 rng(verify::StimGen::derive(verify::env_seed(7301),
                                              "native/mread"));
  const std::uint64_t edges[] = {0,          4,         5,
                                 6,          ~0ull,     ~0ull - 3,
                                 1ull << 63, (1ull << 63) - 1};
  for (const char* flags : {"", "-mno-avx512f", "-mno-avx2 -mno-avx512f"}) {
    SCOPED_TRACE(std::string("flags '") + flags + "'");
    jit::CompileOptions opt;
    opt.extra_flags = flags;
    std::string log;
    const std::shared_ptr<jit::Object> obj =
        jit::compile({src}, opt, "osss-mread", log);
    ASSERT_NE(obj, nullptr) << log;
    const auto mread =
        reinterpret_cast<std::uint64_t (*)(std::uint64_t*,
                                           const std::uint64_t*,
                                           const std::uint64_t*)>(
            obj->sym("osss_mread"));
    ASSERT_NE(mread, nullptr);
    std::vector<std::uint64_t> mem(kDepth * kLanes), addr(kLanes),
        out(kLanes, 0), want(kLanes, 0);
    for (std::uint64_t& w : mem) w = rng();
    for (int trial = 0; trial < 1000; ++trial) {
      for (std::uint64_t& a : addr) {
        const std::uint64_t pick = rng() % 3;
        a = pick == 0 ? edges[rng() % std::size(edges)]
            : pick == 1 ? rng() % 8
                        : rng();
      }
      std::uint64_t changed = 0;
      for (unsigned l = 0; l < kLanes; ++l) {
        const std::uint64_t v =
            addr[l] < kDepth ? mem[addr[l] * kLanes + l] : 0;
        changed |= v ^ want[l];
        want[l] = v;
      }
      ASSERT_EQ(mread(out.data(), mem.data(), addr.data()) != 0,
                changed != 0)
          << "trial " << trial;
      ASSERT_EQ(out, want) << "trial " << trial;
    }
  }
}

/// set_input(Bits) and set_input(u64) drive every lane of a one-word and
/// a two-word port, and a write that changes nothing wakes no level.
TEST(NativeInput, BroadcastWritesEveryLaneAndWakesOnlyOnChange) {
  Builder b("broadcast");
  const Wire x = b.input("x", 12);
  const Wire y = b.input("y", 90);
  b.output("x1", b.add(x, b.constant(12, 1)));
  b.output("y1", b.add(y, y));
  const Module mod = b.take();
  for (const unsigned lanes : {1u, 3u, 64u, 200u}) {
    SCOPED_TRACE("x" + std::to_string(lanes));
    tp::CodegenOptions handlers;
    handlers.force_fallback = true;  // the sweep counts its levels
    Simulator s(mod, SimMode::kNative, lanes, handlers);
    const auto hx = s.input_handle("x");
    const auto hy = s.input_handle("y");
    Bits wide(90, 0);
    wide.set_range(0, Bits(64, 0x0123456789abcdefull));
    wide.set_range(64, Bits(26, 0x2abcdef));
    s.set_input(hx, std::uint64_t{0xfff7});  // truncated to 12 bits
    s.set_input(hy, wide);
    for (unsigned l = 0; l < lanes; ++l) {
      EXPECT_EQ(s.output_lane(s.output_handle("x1"), l).to_u64(), 0xff8u);
      EXPECT_EQ(s.output_lane(s.output_handle("y1"), l), wide + wide);
    }
    const std::uint64_t settled = s.stats().levels_evaluated;
    s.set_input(hx, std::uint64_t{0xff7});
    s.set_input(hy, wide);
    (void)s.output(s.output_handle("x1"));
    EXPECT_EQ(s.stats().levels_evaluated, settled) << "unchanged writes";
    s.set_input(hy, std::uint64_t{5});  // clears the high word
    for (unsigned l = 0; l < lanes; ++l)
      EXPECT_EQ(s.output_lane(s.output_handle("y1"), l).to_u64(), 10u);
    EXPECT_GT(s.stats().levels_evaluated, settled);
  }
}

}  // namespace
}  // namespace osss::rtl
