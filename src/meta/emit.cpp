#include "meta/emit.hpp"

#include <stdexcept>

namespace osss::meta {

rtl::Wire RtlEmitter::emit(const ExprPtr& e) {
  if (!e) throw std::logic_error("RtlEmitter: null expression");
  const auto it = cache_.find(e.get());
  if (it != cache_.end()) return it->second;
  const rtl::Wire w = compute(e);
  if (w.width != e->width)
    throw std::logic_error("RtlEmitter: width drift emitting " +
                           to_string(e));
  cache_.emplace(e.get(), w);
  return w;
}

rtl::Wire RtlEmitter::compute(const ExprPtr& e) {
  auto lookup = [&](const std::unordered_map<std::string, rtl::Wire>& table,
                    const char* what) -> rtl::Wire {
    const auto it = table.find(e->name);
    if (it == table.end())
      throw std::logic_error(std::string("RtlEmitter: unbound ") + what +
                             " '" + e->name + "'");
    if (it->second.width != e->width)
      throw std::logic_error(std::string("RtlEmitter: ") + what + " '" +
                             e->name + "' width mismatch");
    return it->second;
  };
  switch (e->kind) {
    case ExprKind::kConst:
      return b_.constant(e->value);
    case ExprKind::kMemberRef:
      return lookup(members_, "member");
    case ExprKind::kParamRef:
      return lookup(params_, "param");
    case ExprKind::kLocalRef:
      return lookup(locals_, "local");
    case ExprKind::kBinary: {
      const rtl::Wire a = emit(e->args[0]);
      switch (e->bop) {
        case BinOp::kShl:
        case BinOp::kLshr: {
          // Constant shift amounts become fixed wiring.
          if (is_const(e->args[1])) {
            const unsigned clamped =
                rtl::shift_count(e->args[1]->value, a.width);
            return e->bop == BinOp::kShl ? b_.shli(a, clamped)
                                         : b_.lshri(a, clamped);
          }
          const rtl::Wire amt = emit(e->args[1]);
          return e->bop == BinOp::kShl ? b_.shlv(a, amt) : b_.lshrv(a, amt);
        }
        default:
          break;
      }
      const rtl::Wire b = emit(e->args[1]);
      switch (e->bop) {
        case BinOp::kAdd: return b_.add(a, b);
        case BinOp::kSub: return b_.sub(a, b);
        case BinOp::kMul: return b_.mul(a, b);
        case BinOp::kAnd: return b_.and_(a, b);
        case BinOp::kOr: return b_.or_(a, b);
        case BinOp::kXor: return b_.xor_(a, b);
        case BinOp::kEq: return b_.eq(a, b);
        case BinOp::kNe: return b_.ne(a, b);
        case BinOp::kUlt: return b_.ult(a, b);
        case BinOp::kUle: return b_.ule(a, b);
        case BinOp::kSlt: return b_.slt(a, b);
        case BinOp::kSle: return b_.sle(a, b);
        default:
          throw std::logic_error("RtlEmitter: unexpected binary op");
      }
    }
    case ExprKind::kUnary: {
      const rtl::Wire a = emit(e->args[0]);
      switch (e->uop) {
        case UnOp::kNot: return b_.not_(a);
        case UnOp::kNeg:
          return b_.sub(b_.constant(a.width, 0), a);
        case UnOp::kRedOr: return b_.red_or(a);
        case UnOp::kRedAnd: return b_.red_and(a);
        case UnOp::kRedXor: return b_.red_xor(a);
      }
      throw std::logic_error("RtlEmitter: unexpected unary op");
    }
    case ExprKind::kSlice:
      return b_.slice(emit(e->args[0]), e->lo + e->width - 1, e->lo);
    case ExprKind::kConcat: {
      std::vector<rtl::Wire> parts;
      parts.reserve(e->args.size());
      for (const auto& a : e->args) parts.push_back(emit(a));
      return b_.concat(parts);
    }
    case ExprKind::kCond:
      return b_.mux(emit(e->args[0]), emit(e->args[1]), emit(e->args[2]));
    case ExprKind::kZExt:
      return b_.zext(emit(e->args[0]), e->width);
    case ExprKind::kSExt:
      return b_.sext(emit(e->args[0]), e->width);
  }
  throw std::logic_error("RtlEmitter: unexpected expr kind");
}

}  // namespace osss::meta
