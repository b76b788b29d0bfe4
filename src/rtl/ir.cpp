#include "rtl/ir.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace osss::rtl {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kInput: return "input";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kNot: return "not";
    case Op::kShlI: return "shli";
    case Op::kLshrI: return "lshri";
    case Op::kAshrI: return "ashri";
    case Op::kShlV: return "shlv";
    case Op::kLshrV: return "lshrv";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kUlt: return "ult";
    case Op::kUle: return "ule";
    case Op::kSlt: return "slt";
    case Op::kSle: return "sle";
    case Op::kMux: return "mux";
    case Op::kSlice: return "slice";
    case Op::kConcat: return "concat";
    case Op::kZExt: return "zext";
    case Op::kSExt: return "sext";
    case Op::kRedOr: return "redor";
    case Op::kRedAnd: return "redand";
    case Op::kRedXor: return "redxor";
    case Op::kReg: return "reg";
    case Op::kMemRead: return "memread";
  }
  return "?";
}

unsigned shift_count(const Bits& amount, unsigned width) {
  for (unsigned w = 1; w * 64 < amount.width(); ++w)
    if (amount.word(w) != 0) return width;
  return static_cast<unsigned>(std::min<std::uint64_t>(amount.to_u64(), width));
}

namespace {
[[noreturn]] void bad(const std::string& module, const std::string& msg) {
  throw std::logic_error("rtl::Module " + module + ": " + msg);
}
}  // namespace

NodeId Module::find_input(const std::string& name) const {
  for (const auto& p : inputs_)
    if (p.name == name) return p.node;
  return kInvalidNode;
}

std::vector<NodeId> Module::topo_order() const {
  // Kahn's algorithm over the combinational dependency graph.  kReg output
  // nodes are sources (their D input is a *sequential* dependency).
  std::vector<unsigned> pending(nodes_.size(), 0);
  std::vector<std::vector<NodeId>> users(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.op == Op::kReg) continue;  // sequential boundary
    for (const NodeId in : n.ins) {
      users[in].push_back(id);
      ++pending[id];
    }
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (pending[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const NodeId u : users[id]) {
      if (--pending[u] == 0) ready.push_back(u);
    }
  }
  if (order.size() != nodes_.size())
    bad(name_, "combinational cycle detected");
  return order;
}

std::vector<Violation> Module::violations() const {
  std::vector<Violation> out;
  const auto in_range = [&](NodeId id) { return id < nodes_.size(); };
  const auto width_of = [&](NodeId id) { return nodes_[id].width; };
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    const auto w = [&](std::size_t i) { return nodes_[n.ins[i]].width; };
    const auto bad = [&](std::string msg) {
      out.push_back({Violation::Kind::kNode, id, std::move(msg)});
    };
    if (n.width == 0) {
      bad("node has zero width");
      continue;
    }
    if (!std::all_of(n.ins.begin(), n.ins.end(), in_range)) {
      bad("dangling input reference");
      continue;  // operand-dependent checks would read out of range
    }
    switch (n.op) {
      case Op::kConst:
        if (n.value.width() != n.width) bad("const width mismatch");
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
        if (n.ins.size() != 2 || w(0) != n.width || w(1) != n.width)
          bad(std::string(op_name(n.op)) + " width mismatch");
        break;
      case Op::kNot:
      case Op::kShlI:
      case Op::kLshrI:
      case Op::kAshrI:
        if (n.ins.size() != 1 || w(0) != n.width) bad("unary width mismatch");
        break;
      case Op::kShlV:
      case Op::kLshrV:
        if (n.ins.size() != 2 || w(0) != n.width)
          bad("variable shift width mismatch");
        break;
      case Op::kEq:
      case Op::kNe:
      case Op::kUlt:
      case Op::kUle:
      case Op::kSlt:
      case Op::kSle:
        if (n.ins.size() != 2 || n.width != 1 || w(0) != w(1))
          bad("comparison shape error");
        break;
      case Op::kMux:
        if (n.ins.size() != 3 || w(0) != 1 || w(1) != n.width ||
            w(2) != n.width)
          bad("mux shape error");
        break;
      case Op::kSlice:
        if (n.ins.size() != 1 || std::uint64_t{n.param} + n.width > w(0))
          bad("slice out of range");
        break;
      case Op::kConcat: {
        std::uint64_t total = 0;
        for (const NodeId in : n.ins) total += width_of(in);
        if (n.ins.empty()) bad("empty concat");
        else if (total != n.width) bad("concat width mismatch");
        break;
      }
      case Op::kZExt:
      case Op::kSExt:
        if (n.ins.size() != 1 || w(0) > n.width) bad("extension narrows");
        break;
      case Op::kRedOr:
      case Op::kRedAnd:
      case Op::kRedXor:
        if (n.ins.size() != 1 || n.width != 1) bad("reduction shape error");
        break;
      case Op::kReg: {
        if (n.param >= regs_.size()) {
          bad("reg index out of range");
          break;
        }
        const Register& r = regs_[n.param];
        if (r.q != id) bad("reg back-reference broken");
        if (!in_range(r.d))
          bad("register '" + r.name + "' has unconnected D input");
        else if (width_of(r.d) != n.width)
          bad("register D width mismatch");
        if (r.enable != kInvalidNode &&
            (!in_range(r.enable) || width_of(r.enable) != 1))
          bad("register enable must be 1 bit");
        if (r.init.width() == 0)
          out.push_back({Violation::Kind::kNoReset, id,
                         "register '" + r.name + "' has no reset value"});
        else if (r.init.width() != n.width)
          bad("register init width");
        break;
      }
      case Op::kMemRead: {
        if (n.param >= mems_.size()) {
          bad("mem index out of range");
          break;
        }
        const Memory& m = mems_[n.param];
        if (n.ins.size() != 1 || w(0) != m.addr_width)
          bad("mem read address width");
        if (n.width != m.data_width) bad("mem read data width");
        break;
      }
      case Op::kInput:
        break;
    }
  }
  for (std::uint32_t i = 0; i < mems_.size(); ++i) {
    const Memory& m = mems_[i];
    const auto bad = [&](std::string msg) {
      out.push_back({Violation::Kind::kMemory, i, std::move(msg)});
    };
    if (m.depth == 0 || (m.addr_width < 32 && m.depth > (1u << m.addr_width)))
      bad("memory depth out of range");
    for (const auto& w : m.writes) {
      if (!in_range(w.addr) || !in_range(w.data) || !in_range(w.enable)) {
        bad("memory write port incomplete");
        continue;
      }
      if (width_of(w.addr) != m.addr_width ||
          width_of(w.data) != m.data_width || width_of(w.enable) != 1)
        bad("memory write port width");
    }
  }
  const auto ports = [&](Violation::Kind kind, const std::vector<PortRef>& v,
                         const std::string& dir) {
    for (std::uint32_t i = 0; i < v.size(); ++i)
      if (!in_range(v[i].node))
        out.push_back({kind, i,
                       dir + " '" + v[i].name + "' " +
                           (v[i].node == kInvalidNode
                                ? "unbound"
                                : "bound past the last node")});
  };
  ports(Violation::Kind::kInput, inputs_, "input");
  ports(Violation::Kind::kOutput, outputs_, "output");
  return out;
}

void Module::validate() const {
  const std::vector<Violation> v = violations();
  if (!v.empty()) bad(name_, v.front().message);
  (void)topo_order();  // acyclicity
}

ModuleStats Module::stats() const {
  ModuleStats s;
  for (const Node& n : nodes_) {
    ++s.op_histogram[op_name(n.op)];
    switch (n.op) {
      case Op::kInput:
      case Op::kConst:
      case Op::kReg:
      case Op::kSlice:
      case Op::kConcat:
      case Op::kZExt:
      case Op::kSExt:
        break;  // wiring, not logic
      case Op::kMux:
        ++s.mux_nodes;
        ++s.comb_nodes;
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
        ++s.arith_nodes;
        ++s.comb_nodes;
        break;
      default:
        ++s.comb_nodes;
        break;
    }
  }
  for (const Register& r : regs_) s.register_bits += nodes_[r.q].width;
  for (const Memory& m : mems_)
    s.memory_bits += static_cast<std::size_t>(m.depth) * m.data_width;
  return s;
}

std::string Module::dump() const {
  std::ostringstream os;
  os << "module " << name_ << "\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    os << "  %" << id << ":" << n.width << " = " << op_name(n.op);
    if (n.op == Op::kConst) os << " " << n.value.to_hex_string();
    if (!n.name.empty()) os << " \"" << n.name << "\"";
    if (n.op == Op::kSlice || n.op == Op::kShlI || n.op == Op::kLshrI ||
        n.op == Op::kAshrI)
      os << " [" << n.param << "]";
    for (const NodeId in : n.ins) os << " %" << in;
    os << "\n";
  }
  for (const Register& r : regs_) {
    os << "  reg \"" << r.name << "\" q=%" << r.q << " d=%" << r.d;
    if (r.enable != kInvalidNode) os << " en=%" << r.enable;
    os << " init=" << r.init.to_hex_string() << "\n";
  }
  for (const Memory& m : mems_) {
    os << "  mem \"" << m.name << "\" " << m.depth << "x" << m.data_width
       << "\n";
  }
  for (const auto& p : inputs_) os << "  in " << p.name << " -> %" << p.node << "\n";
  for (const auto& p : outputs_)
    os << "  out " << p.name << " <- %" << p.node << "\n";
  return os.str();
}

}  // namespace osss::rtl
