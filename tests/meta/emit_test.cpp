// Tests for expression-tree -> RTL emission: random equivalence between the
// meta interpreter and the RTL simulator (the two ends of the resolution).

#include "meta/emit.hpp"

#include <gtest/gtest.h>

#include <random>

#include "rtl/sim.hpp"

namespace osss::meta {
namespace {

TEST(Emit, SimpleExpression) {
  rtl::Builder b("m");
  RtlEmitter em(b);
  em.bind_param("a", b.input("a", 8));
  em.bind_param("b", b.input("b", 8));
  const ExprPtr e = mul(add(param("a", 8), param("b", 8)), constant(8, 3));
  b.output("r", em.emit(e));
  rtl::Simulator sim(b.take());
  sim.set_input("a", 10);
  sim.set_input("b", 5);
  EXPECT_EQ(sim.output("r").to_u64(), 45u);
}

TEST(Emit, MemoizationSharesSubtrees) {
  rtl::Builder b("m");
  RtlEmitter em(b);
  em.bind_param("a", b.input("a", 8));
  const ExprPtr shared = add(param("a", 8), constant(8, 1));
  const ExprPtr e = mul(shared, shared);
  const rtl::Wire w = em.emit(e);
  b.output("r", w);
  const rtl::Module m = b.take();
  // Exactly one add node despite two uses.
  EXPECT_EQ(m.stats().op_histogram.at("add"), 1u);
}

TEST(Emit, UnboundReferenceThrows) {
  rtl::Builder b("m");
  RtlEmitter em(b);
  EXPECT_THROW(em.emit(param("zz", 4)), std::logic_error);
}

TEST(Emit, ConstantShiftsBecomeWiring) {
  rtl::Builder b("m");
  RtlEmitter em(b);
  em.bind_param("a", b.input("a", 8));
  b.output("r", em.emit(binary(BinOp::kShl, param("a", 8), constant(4, 2))));
  const rtl::Module m = b.take();
  EXPECT_EQ(m.stats().op_histogram.count("shlv"), 0u);
  EXPECT_EQ(m.stats().op_histogram.at("shli"), 1u);
}

// Property: emitted RTL computes exactly what the interpreter computes,
// across a grab-bag expression using every operator.
TEST(EmitProperty, MatchesInterpreterOnRandomInputs) {
  const unsigned W = 10;
  const ExprPtr a = param("a", W);
  const ExprPtr b_ = param("b", W);
  const ExprPtr c = param("c", 1);
  std::vector<ExprPtr> exprs = {
      add(a, b_),
      sub(a, b_),
      mul(a, b_),
      band(a, b_),
      bor(a, b_),
      bxor(a, b_),
      bnot(a),
      unary(UnOp::kNeg, a),
      unary(UnOp::kRedOr, a),
      unary(UnOp::kRedAnd, a),
      unary(UnOp::kRedXor, a),
      binary(BinOp::kShl, a, slice(b_, 3, 0)),
      binary(BinOp::kLshr, a, slice(b_, 3, 0)),
      eq(a, b_),
      ne(a, b_),
      ult(a, b_),
      ule(a, b_),
      binary(BinOp::kSlt, a, b_),
      binary(BinOp::kSle, a, b_),
      cond(c, a, b_),
      concat({slice(a, 7, 3), slice(b_, 4, 0)}),
      zext(slice(a, 3, 0), W),
      sext(slice(a, 3, 0), W),
  };

  rtl::Builder bld("prop");
  RtlEmitter em(bld);
  em.bind_param("a", bld.input("a", W));
  em.bind_param("b", bld.input("b", W));
  em.bind_param("c", bld.input("c", 1));
  for (std::size_t i = 0; i < exprs.size(); ++i)
    bld.output(std::string("o").append(std::to_string(i)), em.emit(exprs[i]));
  rtl::Simulator sim(bld.take());

  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const Bits va(W, rng());
    const Bits vb(W, rng());
    const Bits vc(1, rng());
    sim.set_input("a", va);
    sim.set_input("b", vb);
    sim.set_input("c", vc);
    Env env;
    env.params["a"] = constant(va);
    env.params["b"] = constant(vb);
    env.params["c"] = constant(vc);
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      const Bits expect = eval_const(substitute(exprs[i], env));
      EXPECT_TRUE(sim.output(std::string("o").append(std::to_string(i))) ==
                  expect)
          << "expr " << i << ": " << to_string(exprs[i]);
    }
  }
}

}  // namespace
}  // namespace osss::meta
