#include "synth/systemc_emit.hpp"

#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

namespace osss::synth {

namespace {

using meta::ClassDesc;
using meta::Expr;
using meta::ExprKind;
using meta::ExprPtr;
using meta::MethodDesc;
using meta::Stmt;
using meta::StmtKind;
using meta::StmtPtr;

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string type_of(unsigned width, bool is_const) {
  std::string t = width == 1 ? std::string("sc_bit")
                             : "sc_biguint< " + std::to_string(width) + " >";
  return is_const ? "const " + t : t;
}

/// Expression printer: member references become `_this_.range(hi, lo)`
/// slices — the §8 resolution made visible.
std::string print_expr(const ClassDesc& cls, const ExprPtr& e) {
  std::ostringstream os;
  switch (e->kind) {
    case ExprKind::kConst:
      os << e->value.to_hex_string();
      break;
    case ExprKind::kMemberRef: {
      const unsigned lo = cls.member_offset(e->name);
      os << "_this_.range(" << (lo + e->width - 1) << ", " << lo << ")";
      break;
    }
    case ExprKind::kParamRef:
    case ExprKind::kLocalRef:
      os << e->name;
      break;
    case ExprKind::kBinary:
      os << "(" << print_expr(cls, e->args[0]) << " "
         << meta::bin_op_name(e->bop) << " " << print_expr(cls, e->args[1])
         << ")";
      break;
    case ExprKind::kUnary:
      os << meta::un_op_name(e->uop) << "(" << print_expr(cls, e->args[0])
         << ")";
      break;
    case ExprKind::kSlice:
      // Slices of members collapse into a single `_this_` range — the form
      // the paper's Figure 7 shows.
      if (e->args[0]->kind == ExprKind::kMemberRef) {
        const unsigned base = cls.member_offset(e->args[0]->name);
        os << "_this_.range(" << (base + e->lo + e->width - 1) << ", "
           << (base + e->lo) << ")";
      } else {
        os << print_expr(cls, e->args[0]) << ".range("
           << (e->lo + e->width - 1) << ", " << e->lo << ")";
      }
      break;
    case ExprKind::kConcat: {
      os << "(";
      for (std::size_t i = 0; i < e->args.size(); ++i) {
        if (i != 0) os << ", ";
        os << print_expr(cls, e->args[i]);
      }
      os << ")";
      break;
    }
    case ExprKind::kCond:
      os << "(" << print_expr(cls, e->args[0]) << " ? "
         << print_expr(cls, e->args[1]) << " : "
         << print_expr(cls, e->args[2]) << ")";
      break;
    case ExprKind::kZExt:
      os << "(sc_biguint<" << e->width << ">)(" << print_expr(cls, e->args[0])
         << ")";
      break;
    case ExprKind::kSExt:
      os << "(sc_bigint<" << e->width << ">)(" << print_expr(cls, e->args[0])
         << ")";
      break;
  }
  return os.str();
}

void print_stmts(const ClassDesc& cls, const std::vector<StmtPtr>& body,
                 std::set<std::string>& declared, unsigned indent,
                 std::ostringstream& os) {
  const std::string pad(indent, ' ');
  for (const StmtPtr& s : body) {
    switch (s->kind) {
      case StmtKind::kAssign:
        if (s->target_is_member) {
          const unsigned lo = cls.member_offset(s->target);
          os << pad << "_this_.range(" << (lo + s->expr->width - 1) << ", "
             << lo << ") = " << print_expr(cls, s->expr) << ";\n";
        } else {
          if (declared.insert(s->target).second) {
            os << pad << type_of(s->expr->width, false) << " " << s->target
               << " = " << print_expr(cls, s->expr) << ";\n";
          } else {
            os << pad << s->target << " = " << print_expr(cls, s->expr)
               << ";\n";
          }
        }
        break;
      case StmtKind::kIf:
        os << pad << "if ( " << print_expr(cls, s->if_cond) << " ) {\n";
        print_stmts(cls, s->then_body, declared, indent + 2, os);
        if (!s->else_body.empty()) {
          os << pad << "} else {\n";
          print_stmts(cls, s->else_body, declared, indent + 2, os);
        }
        os << pad << "}\n";
        break;
      case StmtKind::kReturn:
        os << pad << "return " << print_expr(cls, s->ret) << ";\n";
        break;
    }
  }
}

}  // namespace

std::string emit_resolved_method(const ClassDesc& cls,
                                 const std::string& method) {
  const MethodDesc* m = cls.find_method(method);
  if (m == nullptr)
    throw std::logic_error("emit_resolved_method: no method " + method);
  std::ostringstream os;
  const std::string fn = std::string("_").append(sanitize(cls.name())) + "_" +
                         sanitize(method) + "_1_";
  os << (m->return_width == 0
             ? "void"
             : (m->return_width == 1
                    ? "bool"
                    : "sc_biguint< " + std::to_string(m->return_width) + " >"))
     << " " << fn << "( "
     << (m->is_const ? "const sc_biguint< " : "sc_biguint< ")
     << cls.data_width() << " > & _this_";
  for (const auto& p : m->params)
    os << ", " << type_of(p.width, true) << " & " << p.name;
  os << " )\n{\n";
  std::set<std::string> declared;
  for (const auto& p : m->params) declared.insert(p.name);
  print_stmts(cls, m->body, declared, 2, os);
  os << "}\n";
  return os.str();
}

std::string emit_resolved_module(const hls::Behavior& beh) {
  std::ostringstream os;
  os << "// Resolved by the OSSS synthesizer (cf. paper Fig. 8).\n";
  os << "SC_MODULE( " << sanitize(beh.name) << " )\n{\n";
  os << "  sc_in_clk clk;\n  sc_in<bool> reset;\n";
  for (const hls::InputDecl& in : beh.inputs)
    os << "  sc_in< " << (in.width == 1 ? std::string("bool")
                                        : "sc_biguint<" +
                                              std::to_string(in.width) + ">")
       << " > " << in.name << ";\n";
  for (const hls::VarDecl& v : beh.vars) {
    if (v.is_temp) continue;
    if (v.is_output)
      os << "  sc_out< "
         << (v.width == 1 ? std::string("bool")
                          : "sc_biguint<" + std::to_string(v.width) + ">")
         << " > " << v.name << ";\n";
  }
  os << "\n";
  for (const hls::VarDecl& v : beh.vars) {
    if (v.is_temp || v.is_output) continue;
    // Objects are already resolved to their single bit vector (§8).
    os << "  sc_biguint< " << v.width << " > " << v.name;
    if (v.cls) os << ";  // was: " << v.cls->name() << " object";
    os << (v.cls ? "\n" : ";\n");
  }
  os << "\n  void behaviour()\n  {\n";
  // Walk the linear code; labels for branch/jump targets.
  std::set<std::size_t> labels;
  for (const hls::Instr& i : beh.code) {
    if (i.kind == hls::Instr::Kind::kBranch ||
        i.kind == hls::Instr::Kind::kJump)
      labels.insert(i.target_pc);
  }
  // A dummy class for printing free expressions (no members involved at
  // module level — member slices were resolved during method generation).
  const ClassDesc no_members("__module__");
  for (std::size_t pc = 0; pc < beh.code.size(); ++pc) {
    if (labels.count(pc)) os << "  L" << pc << ":\n";
    const hls::Instr& i = beh.code[pc];
    switch (i.kind) {
      case hls::Instr::Kind::kAssign:
        os << "    " << i.target << " = " << print_expr(no_members, i.expr)
           << ";\n";
        break;
      case hls::Instr::Kind::kCall: {
        const hls::VarDecl* obj = beh.find_var(i.object);
        const std::string fn =
            std::string("_").append(
                sanitize(obj && obj->cls ? obj->cls->name() : "obj")) +
            "_" + sanitize(i.method) + "_1_";
        os << "    ";
        if (!i.result.empty()) os << i.result << " = ";
        os << fn << "( " << i.object;
        for (const auto& a : i.args)
          os << ", " << print_expr(no_members, a);
        os << " );\n";
        break;
      }
      case hls::Instr::Kind::kBranch:
        os << "    if ( !(" << print_expr(no_members, i.cond)
           << ") ) goto L" << i.target_pc << ";\n";
        break;
      case hls::Instr::Kind::kJump:
        os << "    goto L" << i.target_pc << ";\n";
        break;
      case hls::Instr::Kind::kWait:
        os << "    wait();\n";
        break;
    }
  }
  if (labels.count(beh.code.size())) os << "  L" << beh.code.size() << ":\n";
  os << "  }\n\n  SC_CTOR( " << sanitize(beh.name) << " )\n  {\n"
     << "    SC_CTHREAD( behaviour, clk.pos() );\n"
     << "    watching( reset.delayed() == true );\n  }\n};\n";
  return os.str();
}

std::string emit_resolved_class(const ClassDesc& cls) {
  std::ostringstream os;
  os << "// Resolved by the OSSS synthesizer: class " << cls.name()
     << " mapped to sc_biguint< " << cls.data_width() << " >.\n"
     << "// Member functions are generated as non-member functions over\n"
     << "// the `_this_` vector; member access is slice access.\n\n";
  // Inherited methods first (base-first, like the layout).
  std::vector<const ClassDesc*> chain;
  for (const ClassDesc* c = &cls; c != nullptr; c = c->base())
    chain.insert(chain.begin(), c);
  std::set<std::string> seen;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const MethodDesc& m : (*it)->own_methods()) {
      if (!seen.insert(m.name).second) continue;  // overridden
      os << emit_resolved_method(cls, m.name) << "\n";
    }
  }
  return os.str();
}

}  // namespace osss::synth
