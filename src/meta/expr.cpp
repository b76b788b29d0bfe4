#include "meta/expr.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "rtl/ir.hpp"

namespace osss::meta {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("meta: " + msg);
}

// Expression nodes are hash-consed (interned): structurally identical trees
// are pointer-identical.  Because children are interned first, shallow
// comparison with pointer-equal arguments suffices.  Structural sharing is
// what makes "no logic is duplicated by resolution" literally true in the
// emitted RTL, and lets the binder recognize the same operation reached
// from different FSM states.
std::size_t shallow_hash(const Expr& e) {
  std::size_t h = static_cast<std::size_t>(e.kind) * 0x9e3779b97f4a7c15ull;
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(e.width);
  mix(static_cast<std::size_t>(e.bop));
  mix(static_cast<std::size_t>(e.uop));
  mix(e.lo);
  mix(std::hash<std::string>{}(e.name));
  if (e.kind == ExprKind::kConst) mix(e.value.hash());
  for (const auto& a : e.args) mix(reinterpret_cast<std::size_t>(a.get()));
  return h;
}

bool shallow_equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || a.width != b.width || a.bop != b.bop ||
      a.uop != b.uop || a.lo != b.lo || a.name != b.name ||
      a.args.size() != b.args.size())
    return false;
  if (a.kind == ExprKind::kConst && !(a.value == b.value)) return false;
  for (std::size_t i = 0; i < a.args.size(); ++i)
    if (a.args[i].get() != b.args[i].get()) return false;
  return true;
}

ExprPtr make(Expr e) {
  thread_local std::unordered_map<std::size_t, std::vector<ExprPtr>> intern;
  const std::size_t h = shallow_hash(e);
  auto& bucket = intern[h];
  for (const ExprPtr& cand : bucket) {
    if (shallow_equal(*cand, e)) return cand;
  }
  bucket.push_back(std::make_shared<const Expr>(std::move(e)));
  return bucket.back();
}

bool all_const(const std::vector<ExprPtr>& args) {
  for (const auto& a : args)
    if (a->kind != ExprKind::kConst) return false;
  return true;
}

/// Evaluate an expression node whose arguments are all constants through
/// rtl::eval_op, the one Bits-level definition of every operator: the node
/// maps onto an rtl::Node whose operand i is argument i.  A negation is a
/// subtraction from a zero operand.  kCond never gets here: cond() picks a
/// branch of a constant condition itself.
Bits fold_node(const Expr& e) {
  // BinOp and UnOp in declaration order.
  static constexpr rtl::Op kBinOps[] = {
      rtl::Op::kAdd, rtl::Op::kSub,  rtl::Op::kMul,   rtl::Op::kAnd,
      rtl::Op::kOr,  rtl::Op::kXor,  rtl::Op::kShlV,  rtl::Op::kLshrV,
      rtl::Op::kEq,  rtl::Op::kNe,   rtl::Op::kUlt,   rtl::Op::kUle,
      rtl::Op::kSlt, rtl::Op::kSle};
  static constexpr rtl::Op kUnOps[] = {rtl::Op::kNot, rtl::Op::kSub,
                                       rtl::Op::kRedOr, rtl::Op::kRedAnd,
                                       rtl::Op::kRedXor};
  static_assert(sizeof kBinOps / sizeof *kBinOps ==
                    static_cast<std::size_t>(BinOp::kSle) + 1 &&
                sizeof kUnOps / sizeof *kUnOps ==
                    static_cast<std::size_t>(UnOp::kRedXor) + 1);
  rtl::Node n{};
  n.width = e.width;
  switch (e.kind) {
    case ExprKind::kBinary: n.op = kBinOps[static_cast<int>(e.bop)]; break;
    case ExprKind::kUnary: n.op = kUnOps[static_cast<int>(e.uop)]; break;
    case ExprKind::kSlice:
      n.op = rtl::Op::kSlice;
      n.param = e.lo;
      break;
    case ExprKind::kConcat:
      n.op = rtl::Op::kConcat;
      n.ins.resize(e.args.size());  // eval_op counts the operands
      break;
    case ExprKind::kZExt: n.op = rtl::Op::kZExt; break;
    case ExprKind::kSExt: n.op = rtl::Op::kSExt; break;
    default: fail("cannot fold reference");
  }
  if (e.kind == ExprKind::kUnary && e.uop == UnOp::kNeg) {
    const Bits zero(e.width);
    return rtl::eval_op(n, [&](std::size_t i) -> const Bits& {
      return i == 0 ? zero : e.args[0]->value;
    });
  }
  return rtl::eval_op(
      n, [&](std::size_t i) -> const Bits& { return e.args[i]->value; });
}

}  // namespace

const char* bin_op_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kAnd: return "&";
    case BinOp::kOr: return "|";
    case BinOp::kXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kLshr: return ">>";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kUlt: return "<";
    case BinOp::kUle: return "<=";
    case BinOp::kSlt: return "<s";
    case BinOp::kSle: return "<=s";
  }
  return "?";
}

const char* un_op_name(UnOp op) {
  switch (op) {
    case UnOp::kNot: return "~";
    case UnOp::kNeg: return "-";
    case UnOp::kRedOr: return "|red";
    case UnOp::kRedAnd: return "&red";
    case UnOp::kRedXor: return "^red";
  }
  return "?";
}

ExprPtr constant(unsigned width, std::uint64_t v) {
  return constant(Bits(width, v));
}

ExprPtr constant(Bits v) {
  if (v.width() == 0) fail("zero-width constant");
  Expr e;
  e.kind = ExprKind::kConst;
  e.width = v.width();
  e.value = std::move(v);
  return make(std::move(e));
}

static ExprPtr ref(ExprKind kind, std::string name, unsigned width) {
  if (width == 0) fail("zero-width reference " + name);
  Expr e;
  e.kind = kind;
  e.width = width;
  e.name = std::move(name);
  return make(std::move(e));
}

ExprPtr member(std::string name, unsigned width) {
  return ref(ExprKind::kMemberRef, std::move(name), width);
}
ExprPtr param(std::string name, unsigned width) {
  return ref(ExprKind::kParamRef, std::move(name), width);
}
ExprPtr local(std::string name, unsigned width) {
  return ref(ExprKind::kLocalRef, std::move(name), width);
}

ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b) {
  if (!a || !b) fail("null operand");
  unsigned width = 0;
  switch (op) {
    case BinOp::kShl:
    case BinOp::kLshr:
      width = a->width;  // shift amount may be any width
      break;
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kUlt:
    case BinOp::kUle:
    case BinOp::kSlt:
    case BinOp::kSle:
      if (a->width != b->width) fail("comparison width mismatch");
      width = 1;
      break;
    default:
      if (a->width != b->width)
        fail(std::string("binary ") + bin_op_name(op) + " width mismatch: " +
             std::to_string(a->width) + " vs " + std::to_string(b->width));
      width = a->width;
  }
  Expr e;
  e.kind = ExprKind::kBinary;
  e.width = width;
  e.bop = op;
  e.args = {std::move(a), std::move(b)};
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

ExprPtr unary(UnOp op, ExprPtr a) {
  if (!a) fail("null operand");
  Expr e;
  e.kind = ExprKind::kUnary;
  e.uop = op;
  e.width = (op == UnOp::kRedOr || op == UnOp::kRedAnd || op == UnOp::kRedXor)
                ? 1
                : a->width;
  e.args = {std::move(a)};
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

ExprPtr slice(ExprPtr a, unsigned hi, unsigned lo) {
  if (!a) fail("null operand");
  if (hi >= a->width || lo > hi) fail("slice out of range");
  if (lo == 0 && hi == a->width - 1) return a;
  Expr e;
  e.kind = ExprKind::kSlice;
  e.width = hi - lo + 1;
  e.lo = lo;
  e.args = {std::move(a)};
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

ExprPtr concat(std::vector<ExprPtr> parts) {
  if (parts.empty()) fail("empty concat");
  if (parts.size() == 1) return parts[0];
  unsigned width = 0;
  for (const auto& p : parts) {
    if (!p) fail("null concat part");
    width += p->width;
  }
  Expr e;
  e.kind = ExprKind::kConcat;
  e.width = width;
  e.args = std::move(parts);
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

ExprPtr cond(ExprPtr c, ExprPtr t, ExprPtr e_) {
  if (!c || !t || !e_) fail("null cond operand");
  if (c->width != 1) fail("condition must be 1 bit");
  if (t->width != e_->width) fail("cond branch width mismatch");
  if (c->kind == ExprKind::kConst) return c->value.bit(0) ? t : e_;
  if (t == e_) return t;
  Expr e;
  e.kind = ExprKind::kCond;
  e.width = t->width;
  e.args = {std::move(c), std::move(t), std::move(e_)};
  return make(std::move(e));
}

ExprPtr zext(ExprPtr a, unsigned width) {
  if (!a) fail("null operand");
  if (width == a->width) return a;
  if (width < a->width) fail("zext narrows");
  Expr e;
  e.kind = ExprKind::kZExt;
  e.width = width;
  e.args = {std::move(a)};
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

ExprPtr sext(ExprPtr a, unsigned width) {
  if (!a) fail("null operand");
  if (width == a->width) return a;
  if (width < a->width) fail("sext narrows");
  Expr e;
  e.kind = ExprKind::kSExt;
  e.width = width;
  e.args = {std::move(a)};
  if (all_const(e.args)) return constant(fold_node(e));
  return make(std::move(e));
}

StmtPtr assign_member(std::string name, ExprPtr value) {
  if (!value) fail("null assignment value");
  Stmt s;
  s.kind = StmtKind::kAssign;
  s.target_is_member = true;
  s.target = std::move(name);
  s.expr = std::move(value);
  return std::make_shared<const Stmt>(std::move(s));
}

StmtPtr assign_local(std::string name, ExprPtr value) {
  if (!value) fail("null assignment value");
  Stmt s;
  s.kind = StmtKind::kAssign;
  s.target_is_member = false;
  s.target = std::move(name);
  s.expr = std::move(value);
  return std::make_shared<const Stmt>(std::move(s));
}

StmtPtr if_stmt(ExprPtr cond_, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body) {
  if (!cond_) fail("null if condition");
  if (cond_->width != 1) fail("if condition must be 1 bit");
  Stmt s;
  s.kind = StmtKind::kIf;
  s.if_cond = std::move(cond_);
  s.then_body = std::move(then_body);
  s.else_body = std::move(else_body);
  return std::make_shared<const Stmt>(std::move(s));
}

StmtPtr return_stmt(ExprPtr value) {
  if (!value) fail("null return value");
  Stmt s;
  s.kind = StmtKind::kReturn;
  s.ret = std::move(value);
  return std::make_shared<const Stmt>(std::move(s));
}

ExprPtr substitute(const ExprPtr& e, const Env& env) {
  if (!e) fail("substitute on null expr");
  switch (e->kind) {
    case ExprKind::kConst:
      return e;
    case ExprKind::kMemberRef: {
      const auto it = env.members.find(e->name);
      if (it == env.members.end())
        throw std::logic_error("meta: unbound member '" + e->name + "'");
      if (it->second->width != e->width)
        throw std::logic_error("meta: member '" + e->name + "' width mismatch");
      return it->second;
    }
    case ExprKind::kParamRef: {
      const auto it = env.params.find(e->name);
      if (it == env.params.end())
        throw std::logic_error("meta: unbound parameter '" + e->name + "'");
      if (it->second->width != e->width)
        throw std::logic_error("meta: param '" + e->name + "' width mismatch");
      return it->second;
    }
    case ExprKind::kLocalRef: {
      const auto it = env.locals.find(e->name);
      if (it == env.locals.end())
        throw std::logic_error("meta: unbound local '" + e->name + "'");
      if (it->second->width != e->width)
        throw std::logic_error("meta: local '" + e->name + "' width mismatch");
      return it->second;
    }
    default:
      break;
  }
  // Rebuild through the checked constructors (they fold constants and keep
  // simplifications like cond(c,x,x) == x).
  std::vector<ExprPtr> args;
  args.reserve(e->args.size());
  bool changed = false;
  for (const auto& a : e->args) {
    args.push_back(substitute(a, env));
    changed |= (args.back() != a);
  }
  if (!changed) return e;
  switch (e->kind) {
    case ExprKind::kBinary: return binary(e->bop, args[0], args[1]);
    case ExprKind::kUnary: return unary(e->uop, args[0]);
    case ExprKind::kSlice: return slice(args[0], e->lo + e->width - 1, e->lo);
    case ExprKind::kConcat: return concat(std::move(args));
    case ExprKind::kCond: return cond(args[0], args[1], args[2]);
    case ExprKind::kZExt: return zext(args[0], e->width);
    case ExprKind::kSExt: return sext(args[0], e->width);
    default:
      throw std::logic_error("meta: unexpected expr kind in substitute");
  }
}

ExprPtr exec_stmts(const std::vector<StmtPtr>& body, Env& env) {
  ExprPtr returned;
  for (const StmtPtr& s : body) {
    if (returned)
      throw std::logic_error("meta: statement after return");
    switch (s->kind) {
      case StmtKind::kAssign: {
        ExprPtr v = substitute(s->expr, env);
        auto& table = s->target_is_member ? env.members : env.locals;
        const auto it = table.find(s->target);
        if (it != table.end() && it->second->width != v->width)
          throw std::logic_error("meta: assignment width mismatch on '" +
                                 s->target + "'");
        if (s->target_is_member && it == table.end())
          throw std::logic_error("meta: assignment to unknown member '" +
                                 s->target + "'");
        table[s->target] = std::move(v);
        break;
      }
      case StmtKind::kIf: {
        const ExprPtr c = substitute(s->if_cond, env);
        if (c->kind == ExprKind::kConst) {
          const auto& taken = c->value.bit(0) ? s->then_body : s->else_body;
          ExprPtr r = exec_stmts(taken, env);
          if (r) returned = r;
          break;
        }
        Env then_env = env;
        Env else_env = env;
        const ExprPtr rt = exec_stmts(s->then_body, then_env);
        const ExprPtr re = exec_stmts(s->else_body, else_env);
        if ((rt == nullptr) != (re == nullptr))
          throw std::logic_error(
              "meta: return on one branch of a data-dependent if");
        auto merge = [&](std::map<std::string, ExprPtr>& out,
                         const std::map<std::string, ExprPtr>& t,
                         const std::map<std::string, ExprPtr>& e) {
          for (const auto& [name, tv] : t) {
            const auto ei = e.find(name);
            if (ei != e.end()) {
              out[name] = cond(c, tv, ei->second);
            } else {
              // Declared only on the then-path: visible afterwards only if
              // it already existed (locals introduced in a branch stay
              // branch-local).
              if (out.count(name)) out[name] = cond(c, tv, out[name]);
            }
          }
          for (const auto& [name, ev] : e) {
            if (t.count(name)) continue;  // handled above
            if (out.count(name)) out[name] = cond(c, out[name], ev);
          }
        };
        merge(env.members, then_env.members, else_env.members);
        merge(env.locals, then_env.locals, else_env.locals);
        // Locals first introduced in both branches with equal widths.
        for (const auto& [name, tv] : then_env.locals) {
          if (env.locals.count(name)) continue;
          const auto ei = else_env.locals.find(name);
          if (ei != else_env.locals.end() && ei->second->width == tv->width)
            env.locals[name] = cond(c, tv, ei->second);
        }
        if (rt) returned = cond(c, rt, re);
        break;
      }
      case StmtKind::kReturn:
        returned = substitute(s->ret, env);
        break;
    }
  }
  return returned;
}

bool is_const(const ExprPtr& e) { return e && e->kind == ExprKind::kConst; }

Bits eval_const(const ExprPtr& e) {
  if (!e) throw std::logic_error("meta: eval_const on null");
  if (e->kind != ExprKind::kConst)
    throw std::logic_error("meta: expression is not constant: " +
                           to_string(e));
  return e->value;
}

std::string to_string(const ExprPtr& e) {
  if (!e) return "<null>";
  std::ostringstream os;
  switch (e->kind) {
    case ExprKind::kConst:
      os << e->value.to_hex_string();
      break;
    case ExprKind::kMemberRef:
      os << "this." << e->name;
      break;
    case ExprKind::kParamRef:
    case ExprKind::kLocalRef:
      os << e->name;
      break;
    case ExprKind::kBinary:
      os << "(" << to_string(e->args[0]) << " " << bin_op_name(e->bop) << " "
         << to_string(e->args[1]) << ")";
      break;
    case ExprKind::kUnary:
      os << un_op_name(e->uop) << "(" << to_string(e->args[0]) << ")";
      break;
    case ExprKind::kSlice:
      os << to_string(e->args[0]) << ".range(" << (e->lo + e->width - 1)
         << ", " << e->lo << ")";
      break;
    case ExprKind::kConcat: {
      os << "(";
      for (std::size_t i = 0; i < e->args.size(); ++i) {
        if (i) os << ", ";
        os << to_string(e->args[i]);
      }
      os << ")";
      break;
    }
    case ExprKind::kCond:
      os << "(" << to_string(e->args[0]) << " ? " << to_string(e->args[1])
         << " : " << to_string(e->args[2]) << ")";
      break;
    case ExprKind::kZExt:
      os << "zext<" << e->width << ">(" << to_string(e->args[0]) << ")";
      break;
    case ExprKind::kSExt:
      os << "sext<" << e->width << ">(" << to_string(e->args[0]) << ")";
      break;
  }
  return os.str();
}

}  // namespace osss::meta
