#include "verify/random_module.hpp"

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace osss::verify {

using rtl::Builder;
using rtl::MemHandle;
using rtl::Wire;

namespace {

struct Gen {
  std::mt19937_64& rng;
  Builder& b;
  std::vector<Wire> pool;

  Wire pick() { return pool[rng() % pool.size()]; }

  /// Find or adapt a wire of width w.
  Wire pick_w(unsigned w) {
    for (unsigned tries = 0; tries < 8; ++tries) {
      const Wire c = pick();
      if (c.width == w) return c;
    }
    Wire c = pick();
    return c.width >= w ? b.trunc(c, w) : b.zext(c, w);
  }

  void random_op() {
    const Wire a = pick();
    switch (rng() % 16) {
      case 0: pool.push_back(b.add(a, pick_w(a.width))); break;
      case 1: pool.push_back(b.sub(a, pick_w(a.width))); break;
      case 2:
        if (a.width <= 8) pool.push_back(b.mul(a, pick_w(a.width)));
        break;
      case 3: pool.push_back(b.and_(a, pick_w(a.width))); break;
      case 4: pool.push_back(b.or_(a, pick_w(a.width))); break;
      case 5: pool.push_back(b.xor_(a, pick_w(a.width))); break;
      case 6: pool.push_back(b.not_(a)); break;
      case 7:
        pool.push_back(
            b.shli(a, static_cast<unsigned>(rng() % (a.width + 1))));
        break;
      case 8:
        pool.push_back(
            b.ashri(a, static_cast<unsigned>(rng() % (a.width + 1))));
        break;
      case 9: pool.push_back(b.eq(a, pick_w(a.width))); break;
      case 10: pool.push_back(b.ult(a, pick_w(a.width))); break;
      case 11: pool.push_back(b.mux(pick_w(1), a, pick_w(a.width))); break;
      case 12:
        if (a.width > 1)
          pool.push_back(b.slice(a, a.width - 1,
                                 static_cast<unsigned>(rng() % a.width)));
        break;
      case 13: pool.push_back(b.concat({a, pick()})); break;
      case 14: pool.push_back(b.shlv(a, pick())); break;
      case 15: pool.push_back(b.lshrv(a, pick())); break;
    }
    if (pool.back().width > 40)
      pool.back() = b.trunc(pool.back(), 40);  // keep widths sane
  }
};

/// A memory with one read and one write port, wired from the pool — the
/// macro-RAM shape the lowering turns into a kMemQ/write-port block.
void add_memory_shape(Gen& g, unsigned index) {
  Builder& b = g.b;
  const unsigned depth = 4u << (g.rng() % 3);  // 4 / 8 / 16 words
  const unsigned width = 2 + static_cast<unsigned>(g.rng() % 9);
  const MemHandle m =
      b.memory("fuzz_mem" + std::to_string(index), depth, width);
  const unsigned aw = b.mem_addr_width(m);
  b.mem_write(m, g.pick_w(aw), g.pick_w(width), g.pick_w(1));
  g.pool.push_back(b.mem_read(m, g.pick_w(aw)));
}

/// One shared functional unit fed through operand muxes selected by a
/// rotating grant register — the synthesize_shared() arbiter/mux shape.
void add_shared_mux_shape(Gen& g, unsigned index) {
  Builder& b = g.b;
  const unsigned clients = 2 + static_cast<unsigned>(g.rng() % 3);  // 2..4
  const unsigned w = 3 + static_cast<unsigned>(g.rng() % 6);        // 3..8
  const unsigned iw = clients <= 2 ? 1 : 2;
  const std::string tag = "shared" + std::to_string(index);

  // Rotating grant register (round-robin analogue).
  const Wire grant = b.reg(tag + "_grant", iw, 0);
  const Wire last = b.constant(iw, clients - 1);
  const Wire next =
      b.mux(b.eq(grant, last), b.constant(iw, 0),
            b.add(grant, b.constant(iw, 1)));
  b.connect(grant, next);

  // Operand muxes over per-client candidate pairs from the pool.
  Wire op_a = g.pick_w(w);
  Wire op_b = g.pick_w(w);
  for (unsigned cl = 1; cl < clients; ++cl) {
    const Wire sel = b.eq(grant, b.constant(iw, cl));
    op_a = b.mux(sel, g.pick_w(w), op_a);
    op_b = b.mux(sel, g.pick_w(w), op_b);
  }
  // The shared unit itself: a multiplier when narrow enough, else an adder.
  const Wire result = w <= 8 ? b.mul(op_a, op_b) : b.add(op_a, op_b);
  // Registered return port, like the arbiter's registered ret<i>.
  const Wire ret = b.reg(tag + "_ret", result.width, 0);
  b.connect(ret, result);
  g.pool.push_back(ret);
  g.pool.push_back(grant);
}

/// A tag register dispatching between per-variant datapaths with a result
/// mux tree — the synthesize_virtual_call() dispatch shape.
void add_polymorphic_shape(Gen& g, unsigned index) {
  Builder& b = g.b;
  const unsigned variants = 2 + static_cast<unsigned>(g.rng() % 3);  // 2..4
  const unsigned w = 2 + static_cast<unsigned>(g.rng() % 7);         // 2..8
  const std::string tag_name = "poly" + std::to_string(index);

  // The tag register cycles through variants (object retagging stand-in).
  const Wire tag = b.reg(tag_name + "_tag", 2, 0);
  const Wire wrap = b.eq(tag, b.constant(2, variants - 1));
  b.connect(tag, b.mux(wrap, b.constant(2, 0),
                       b.add(tag, b.constant(2, 1))));

  // Every variant's "method body" computes from the same operands; the tag
  // muxes the results, exactly what §8's inserted dispatch muxes look like.
  const Wire arg_a = g.pick_w(w);
  const Wire arg_b = g.pick_w(w);
  Wire result = b.xor_(arg_a, arg_b);  // variant 0
  for (unsigned v = 1; v < variants; ++v) {
    Wire body;
    switch (v % 3) {
      case 0: body = b.sub(arg_a, arg_b); break;
      case 1: body = b.add(arg_a, arg_b); break;
      default: body = b.and_(arg_a, b.not_(arg_b)); break;
    }
    result = b.mux(b.eq(tag, b.constant(2, v)), body, result);
  }
  g.pool.push_back(result);
  g.pool.push_back(tag);
}

}  // namespace

rtl::Module random_module(std::mt19937_64& rng,
                          const RandomModuleOptions& opt) {
  Builder b("fuzz");
  Gen g{rng, b, {}};

  const unsigned n_inputs = 2 + static_cast<unsigned>(rng() % 3);
  for (unsigned i = 0; i < n_inputs; ++i) {
    const unsigned w = 1 + static_cast<unsigned>(rng() % 12);
    g.pool.push_back(b.input("in" + std::to_string(i), w));
  }
  std::vector<Wire> regs;
  const unsigned n_regs = 1 + static_cast<unsigned>(rng() % 3);
  for (unsigned i = 0; i < n_regs; ++i) {
    const unsigned w = 1 + static_cast<unsigned>(rng() % 12);
    const Wire q = b.reg(std::string("r").append(std::to_string(i)), w,
                         rtl::Bits(w, rng()));
    regs.push_back(q);
    g.pool.push_back(q);
  }

  for (unsigned i = 0; i < opt.ops; ++i) {
    g.random_op();
    // Interleave the structural shapes so their operands draw from an
    // already-interesting pool.
    if (i == opt.ops / 3) {
      if (opt.with_memory) add_memory_shape(g, 0);
      if (opt.with_shared_mux) add_shared_mux_shape(g, 0);
    }
    if (i == (2 * opt.ops) / 3 && opt.with_polymorphic)
      add_polymorphic_shape(g, 0);
  }
  // Shapes must exist even for tiny op counts.
  if (opt.ops < 3) {
    if (opt.with_memory) add_memory_shape(g, 1);
    if (opt.with_shared_mux) add_shared_mux_shape(g, 1);
    if (opt.with_polymorphic) add_polymorphic_shape(g, 1);
  }

  for (Wire& r : regs) b.connect(r, g.pick_w(r.width));
  const unsigned n_outputs = 1 + static_cast<unsigned>(rng() % 4);
  for (unsigned i = 0; i < n_outputs; ++i)
    b.output("out" + std::to_string(i), g.pick());
  return b.take();
}

}  // namespace osss::verify
