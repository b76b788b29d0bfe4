#include "lint/rtl_rules.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "lint/cycle_path.hpp"
#include "lint/dataflow.hpp"
#include "rtl/tape.hpp"

namespace osss::lint {

using rtl::kInvalidNode;
using rtl::Memory;
using rtl::Module;
using rtl::Node;
using rtl::NodeId;
using rtl::Op;
using rtl::Register;
using sysc::Bits;

namespace {

/// RTL-006/007: FSM reachability explores registers up to this many bits.
constexpr unsigned kFsmMaxStateBits = 10;

std::string node_label(const Module& m, NodeId id) {
  const Node& n = m.node(id);
  std::ostringstream os;
  os << "%" << id;
  if (!n.name.empty()) os << " \"" << n.name << "\"";
  return os.str();
}

class ModuleLinter {
 public:
  ModuleLinter(const Module& m, const Options& opt) : m_(m), opt_(opt) {}

  Report run() {
    const std::vector<rtl::Violation> violations = m_.violations();
    structural(violations);         // RTL-002 / RTL-004 / RTL-009
    const bool acyclic = cycles();  // RTL-001
    // The deep rules need a module validate() accepts (RTL-004 included).
    if (acyclic && violations.empty()) deep();
    return std::move(report_);
  }

 private:
  const Module& m_;
  const Options& opt_;
  Report report_;
  bool linear_chain_ = true;  ///< next-state tree is a priority chain

  void emit(const std::string& rule, std::string object, std::int64_t index,
            std::string message, std::string note) {
    if (opt_.suppressed(rule)) return;
    const RuleInfo* info = find_rule(rule);
    Diagnostic d;
    d.rule = rule;
    d.severity = info ? info->default_severity : Severity::kWarning;
    d.source = m_.name();
    d.object = std::move(object);
    d.index = index;
    d.message = std::move(message);
    d.note = std::move(note);
    report_.add(std::move(d));
  }

  // --- RTL-002 / RTL-004: Module::violations(); RTL-009 ------------------
  // In node order: a node's violations, else its RTL-009.
  void structural(const std::vector<rtl::Violation>& violations) {
    using Kind = rtl::Violation::Kind;
    NodeId next = 0;  // the first node whose RTL-009 is still due
    for (const rtl::Violation& v : violations) {
      const bool at_node = v.kind == Kind::kNode || v.kind == Kind::kNoReset;
      for (; next < (at_node ? v.index : m_.node_count()); ++next)
        over_shift(next);
      if (at_node) next = v.index + 1;
      switch (v.kind) {
        case Kind::kNode:
          emit("RTL-002", node_label(m_, v.index), v.index, v.message, "");
          break;
        case Kind::kNoReset: {
          const unsigned reg = m_.node(v.index).param;
          emit("RTL-004", m_.registers()[reg].name, reg, v.message, "");
          break;
        }
        case Kind::kMemory:
          emit("RTL-002", m_.memories()[v.index].name, v.index, v.message,
               "");
          break;
        case Kind::kInput:
          emit("RTL-002", m_.inputs()[v.index].name, -1, v.message, "");
          break;
        case Kind::kOutput:
          emit("RTL-002", m_.outputs()[v.index].name, -1, v.message, "");
          break;
      }
    }
    for (; next < m_.node_count(); ++next) over_shift(next);
  }

  // RTL-009 on a node violations() accepts.
  void over_shift(NodeId id) {
    const Node& n = m_.node(id);
    if ((n.op != Op::kShlI && n.op != Op::kLshrI) || n.param < n.width)
      return;
    emit("RTL-009", node_label(m_, id), id,
         std::string(op_name(n.op)) + " by " + std::to_string(n.param) +
             " >= width " + std::to_string(n.width) + " always yields zero",
         "");
  }

  // --- RTL-001: combinational cycle (kReg breaks the graph) --------------
  bool cycles() {
    const std::vector<NodeId> loop = detail::cycle_path(
        m_.nodes(), [](const Node& n) { return n.op == Op::kReg; });
    if (loop.empty()) return true;
    std::ostringstream os;
    for (const NodeId id : loop) os << node_label(m_, id) << " -> ";
    os << node_label(m_, loop.front());
    emit("RTL-001", node_label(m_, loop.front()), loop.front(),
         "combinational cycle through " + std::to_string(loop.size()) +
             " node(s)",
         os.str());
    return false;
  }

  // --- deep rules (validated module): RTL-003/005/008, FSM 006/007 -------
  void deep() {
    const rtl::tape::NodeAnalysis na = rtl::tape::analyze(m_);
    using Fate = rtl::tape::NodeAnalysis::Fate;

    // RTL-003: dead nodes, exactly the set the tape compiler prunes.
    for (NodeId id = 0; id < m_.node_count(); ++id) {
      if (na.fate[id] != Fate::kDead) continue;
      emit("RTL-003", node_label(m_, id), id,
           std::string(op_name(m_.node(id).op)) +
               " node is dead (unreachable from outputs and state)",
           "the tape compiler prunes it");
    }

    // RTL-005: outputs that fold to a constant.
    for (const auto& p : m_.outputs()) {
      const Bits& v = na.folded[p.node];
      if (v.empty()) continue;
      emit("RTL-005", p.name, p.node,
           "output '" + p.name + "' is the constant " + v.to_hex_string(),
           "");
    }

    // RTL-008: registers that can never change after reset.
    for (std::size_t i = 0; i < m_.registers().size(); ++i) {
      const Register& r = m_.registers()[i];
      std::string why;
      if (r.enable != kInvalidNode && !na.folded[r.enable].empty() &&
          na.folded[r.enable].is_zero()) {
        why = "enable is constant 0";
      } else if (na.rep(r.d) == r.q) {
        why = "D input feeds back Q";
      } else if (!na.folded[r.d].empty() && na.folded[r.d] == r.init) {
        why = "D input is constant and equal to the reset value";
      }
      if (!why.empty())
        emit("RTL-008", r.name, static_cast<std::int64_t>(i),
             "register '" + r.name + "' is stuck at its reset value", why);
    }

    fsm_rules(na);
    dataflow_rules(na);
  }

  // --- dataflow rules (RTL-010..014) -------------------------------------
  //
  // Everything below consumes the abstract-interpretation facts
  // (lint/dataflow.hpp): sound per-node known-bits/interval invariants
  // over every cycle reachable from reset.  Each rule only fires where
  // plain constant folding (tape::analyze) could NOT already decide the
  // node — the value these rules add is exactly the sequential reasoning.

  /// "[lo, hi]" when the interval is tracked, else "".
  static std::string iv_str(const Fact& f) {
    if (!f.iv.tracked) return {};
    std::ostringstream os;
    os << "[" << f.iv.lo << ", " << f.iv.hi << "]";
    return os.str();
  }

  void dataflow_rules(const rtl::tape::NodeAnalysis& na) {
    using Fate = rtl::tape::NodeAnalysis::Fate;
    const FactDB db = analyze_dataflow(m_);

    for (NodeId id = 0; id < m_.node_count(); ++id) {
      if (na.fate[id] == Fate::kDead) continue;
      const Node& n = m_.node(id);
      switch (n.op) {
        case Op::kMux: {
          // RTL-010: select proven constant only by sequential facts.
          if (!na.folded[id].empty() || !na.folded[n.ins[0]].empty()) break;
          const std::optional<Bits> sel = db.constant(n.ins[0]);
          if (!sel) break;
          const bool taken = !sel->is_zero();
          emit("RTL-010", node_label(m_, id), id,
               std::string("mux select is always ") + (taken ? "1" : "0") +
                   ": the " + (taken ? "else" : "then") +
                   " arm is unreachable",
               "select " + node_label(m_, n.ins[0]) +
                   " is invariant across all reachable cycles");
          break;
        }
        case Op::kEq:
        case Op::kNe:
        case Op::kUlt:
        case Op::kUle:
        case Op::kSlt:
        case Op::kSle: {
          // RTL-011: result decided by operand invariants, not folding.
          if (!na.folded[id].empty()) break;
          const std::optional<Bits> v = db.constant(id);
          if (!v) break;
          std::string note;
          const std::string l = iv_str(db.fact(n.ins[0]));
          const std::string r = iv_str(db.fact(n.ins[1]));
          if (!l.empty() && !r.empty())
            note = "lhs in " + l + ", rhs in " + r;
          emit("RTL-011", node_label(m_, id), id,
               std::string(op_name(n.op)) + " is always " +
                   (v->is_zero() ? "false" : "true") +
                   " in every reachable cycle",
               note);
          break;
        }
        case Op::kSlice: {
          // RTL-012: pure truncation whose dropped high bits are proven
          // always-set — information lost in every cycle.
          const unsigned in_width = m_.node(n.ins[0]).width;
          if (n.param != 0 || n.width >= in_width) break;
          if (!na.folded[id].empty() || !na.folded[n.ins[0]].empty()) break;
          const Fact& f = db.fact(n.ins[0]);
          std::ostringstream bits;
          unsigned dropped_set = 0;
          for (unsigned b = n.width; b < in_width; ++b) {
            if (f.kb.bit(b) != std::optional<bool>(true)) continue;
            if (dropped_set++) bits << " ";
            bits << b;
          }
          if (dropped_set == 0) break;
          emit("RTL-012", node_label(m_, id), id,
               "truncation to " + std::to_string(n.width) + " bits drops " +
                   std::to_string(dropped_set) +
                   " bit(s) proven always 1",
               "dropped set bits: " + bits.str());
          break;
        }
        default:
          break;
      }
    }

    // RTL-013: write ports whose address interval never intersects the
    // memory rows (the simulator silently drops such writes).
    for (const auto& [mi, wi] : db.dead_writes()) {
      const Memory& mem = m_.memories()[mi];
      const Fact& addr = db.fact(mem.writes[wi].addr);
      std::string note = "address in " + iv_str(addr) + ", depth " +
                         std::to_string(mem.depth);
      emit("RTL-013", mem.name, static_cast<std::int64_t>(mi),
           "write port " + std::to_string(wi) + " of memory '" + mem.name +
               "' can never land: address is always out of range",
           std::move(note));
    }

    // RTL-014: per-bit stuck registers.  Skip registers RTL-008 already
    // reported — this rule is the sharper dataflow-based superset.
    std::set<std::int64_t> structural_stuck;
    for (const Diagnostic& d : report_.by_rule("RTL-008"))
      structural_stuck.insert(d.index);
    for (std::size_t i = 0; i < m_.registers().size(); ++i) {
      if (structural_stuck.count(static_cast<std::int64_t>(i))) continue;
      const Register& r = m_.registers()[i];
      const unsigned w = m_.node(r.q).width;
      const Fact& f = db.register_fact(i);
      std::ostringstream bits;
      unsigned stuck = 0;
      for (unsigned b = 0; b < w; ++b) {
        const std::optional<bool> kb = f.kb.bit(b);
        if (!kb) continue;
        if (stuck++) bits << " ";
        bits << b << "=" << (*kb ? "1" : "0");
      }
      if (stuck == 0) continue;
      const std::string what =
          stuck == w ? "register '" + r.name +
                           "' never leaves its reset value"
                     : "register '" + r.name + "': " + std::to_string(stuck) +
                           " of " + std::to_string(w) +
                           " bits never toggle";
      emit("RTL-014", r.name, static_cast<std::int64_t>(i), what,
           "stuck bits: " + bits.str());
    }
  }

  // --- FSM reachability (RTL-006 / RTL-007) ------------------------------
  //
  // A register is treated as an FSM when its next-state cone is a mux tree
  // whose leaves are constants or the register itself (exactly the shape
  // hls::synthesize emits: a priority mux over guarded transitions with a
  // defensive hold).  For every candidate we explore states reachable from
  // the reset value: the guards are evaluated with a small set-valued
  // abstract interpreter (the state register is pinned to one concrete
  // value, everything else starts unknown), and a mux arm contributes its
  // leaf whenever its select can be true.  Unreachable arm targets become
  // RTL-006; arms that can never fire from *any* reachable state become
  // RTL-007.

  /// Abstract value: either "unknown" (top) or a small set of constants.
  struct ValSet {
    bool top = false;
    std::vector<Bits> vals;

    static ValSet make_top() { return ValSet{true, {}}; }
    void insert(const Bits& b) {
      if (std::find(vals.begin(), vals.end(), b) == vals.end())
        vals.push_back(b);
    }
  };
  static constexpr std::size_t kMaxSet = 16;

  struct FsmArm {
    NodeId mux = kInvalidNode;   ///< the kMux node
    NodeId sel = kInvalidNode;   ///< its select cone root
    NodeId leaf = kInvalidNode;  ///< the target leaf (const or the reg q)
    std::uint64_t target = 0;    ///< leaf value (state id; q = "hold")
    bool hold = false;           ///< leaf is the register itself
  };

  void fsm_rules(const rtl::tape::NodeAnalysis& na) {
    for (std::size_t ri = 0; ri < m_.registers().size(); ++ri) {
      const Register& r = m_.registers()[ri];
      const unsigned w = m_.node(r.q).width;
      if (w > kFsmMaxStateBits) continue;
      if (r.init.width() != w) continue;

      // Collect the mux-tree arms; bail if the cone is not FSM-shaped.
      std::vector<FsmArm> arms;
      linear_chain_ = true;
      if (!collect_arms(na, r.q, r.d, arms) || arms.empty()) continue;
      bool has_transition = false;
      for (const FsmArm& a : arms)
        if (!a.hold) has_transition = true;
      if (!has_transition) continue;  // pure hold: RTL-008 territory

      analyze_fsm(na, ri, r, w, arms);
    }
  }

  /// Flatten the next-state mux tree rooted at `d`.  Leaves must be
  /// constants or the register output itself; arms are recorded in priority
  /// order (a then-branch outranks everything below it).
  bool collect_arms(const rtl::tape::NodeAnalysis& na, NodeId q, NodeId d,
                    std::vector<FsmArm>& arms) {
    if (arms.size() > 256) return false;
    const NodeId id = na.rep(d);
    if (id == q) {
      FsmArm a;
      a.leaf = id;
      a.hold = true;
      arms.push_back(a);
      return true;
    }
    const Node& nd = m_.node(id);
    if (nd.op == Op::kMux) {
      // then-branch first: it wins when the select is true.
      const std::size_t mark = arms.size();
      if (!collect_arms(na, q, nd.ins[1], arms)) return false;
      if (arms.size() != mark + 1) linear_chain_ = false;
      for (std::size_t i = mark; i < arms.size(); ++i)
        if (arms[i].sel == kInvalidNode) {
          arms[i].mux = id;
          arms[i].sel = nd.ins[0];
        }
      return collect_arms(na, q, nd.ins[2], arms);
    }
    if (!na.folded[id].empty() && na.folded[id].width() <= 64) {
      FsmArm a;
      a.leaf = id;
      a.target = na.folded[id].to_u64();
      arms.push_back(a);
      return true;
    }
    return false;  // non-constant leaf: not a canonical FSM
  }

  void analyze_fsm(const rtl::tape::NodeAnalysis& na, std::size_t ri,
                   const Register& r, unsigned w,
                   const std::vector<FsmArm>& arms) {
    const std::uint64_t init_state = r.init.to_u64();

    // Universe: reset state plus every arm target.
    std::vector<std::uint64_t> universe{init_state};
    for (const FsmArm& a : arms)
      if (!a.hold &&
          std::find(universe.begin(), universe.end(), a.target) ==
              universe.end())
        universe.push_back(a.target);
    std::sort(universe.begin(), universe.end());

    // BFS over states; per state, abstract-evaluate every arm select.
    std::vector<std::uint64_t> frontier{init_state};
    std::vector<std::uint64_t> reachable{init_state};
    std::vector<bool> arm_fires(arms.size(), false);
    while (!frontier.empty()) {
      const std::uint64_t s = frontier.back();
      frontier.pop_back();
      std::map<NodeId, ValSet> memo;
      // An arm fires when its select can be 1 and no strictly higher
      // priority arm *must* fire (its select is definitely 1).
      bool blocked = false;
      for (std::size_t i = 0; i < arms.size() && !blocked; ++i) {
        const FsmArm& a = arms[i];
        bool can1 = true, must1 = false;
        if (a.sel != kInvalidNode) {
          const ValSet v = eval(na, a.sel, r.q, Bits(w, s), memo, 0);
          if (v.top) {
            can1 = true;
            must1 = false;
          } else {
            can1 = must1 = false;
            bool any0 = false;
            for (const Bits& b : v.vals) (b.is_zero() ? any0 : can1) = true;
            must1 = can1 && !any0;
          }
        } else {
          must1 = true;  // unconditional default arm
        }
        if (!can1) continue;
        arm_fires[i] = true;
        if (!a.hold &&
            std::find(reachable.begin(), reachable.end(), a.target) ==
                reachable.end()) {
          reachable.push_back(a.target);
          frontier.push_back(a.target);
        }
        // In a linear priority chain every lower arm sits in this arm's
        // else branch, so a select that is definitely 1 blocks them all.
        // In a general tree that inference is unsound — skip it there and
        // over-approximate reachability instead (lint must not cry wolf).
        if (must1 && linear_chain_) blocked = true;
      }
    }

    // RTL-006: universe states never reached.
    std::vector<std::uint64_t> unreachable;
    for (const std::uint64_t s : universe)
      if (std::find(reachable.begin(), reachable.end(), s) ==
          reachable.end())
        unreachable.push_back(s);
    if (!unreachable.empty()) {
      std::ostringstream os;
      os << "states:";
      for (std::size_t i = 0; i < unreachable.size() && i < 16; ++i)
        os << " " << unreachable[i];
      if (unreachable.size() > 16) os << " ...";
      emit("RTL-006", r.name, static_cast<std::int64_t>(ri),
           "FSM '" + r.name + "' has " + std::to_string(unreachable.size()) +
               " unreachable state(s) out of " +
               std::to_string(universe.size()),
           os.str());
    }

    // RTL-007: arms that can never fire from any reachable state.
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (arm_fires[i] || arms[i].hold) continue;
      emit("RTL-007", r.name, static_cast<std::int64_t>(ri),
           "FSM '" + r.name + "' transition to state " +
               std::to_string(arms[i].target) + " can never fire",
           "guard node " + node_label(m_, arms[i].sel));
    }
  }

  /// Set-valued abstract evaluation of `id` with register `q` pinned to
  /// `state`.  Applies the interpreter's per-op semantics (rtl::eval_op) to
  /// each member of the (bounded) operand sets; anything unknown or too
  /// large becomes top.
  ValSet eval(const rtl::tape::NodeAnalysis& na, NodeId id, NodeId q,
              const Bits& state, std::map<NodeId, ValSet>& memo,
              unsigned depth) {
    if (depth > 512) return ValSet::make_top();
    id = na.rep(id);
    if (id == q) return ValSet{false, {state}};
    if (!na.folded[id].empty()) return ValSet{false, {na.folded[id]}};
    const auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    memo.emplace(id, ValSet::make_top());  // cycle/depth guard placeholder
    const ValSet v = eval_uncached(na, id, q, state, memo, depth);
    memo[id] = v;
    return v;
  }

  ValSet eval_uncached(const rtl::tape::NodeAnalysis& na, NodeId id, NodeId q,
                       const Bits& state, std::map<NodeId, ValSet>& memo,
                       unsigned depth) {
    const Node& n = m_.node(id);
    switch (n.op) {
      case Op::kInput:
      case Op::kReg:      // a different register: unknown
      case Op::kMemRead:  // memory contents: unknown
        return ValSet::make_top();
      case Op::kMux: {
        const ValSet sel = eval(na, n.ins[0], q, state, memo, depth + 1);
        bool may1 = sel.top, may0 = sel.top;
        for (const Bits& b : sel.vals) (b.is_zero() ? may0 : may1) = true;
        ValSet out;
        if (may1) {
          const ValSet t = eval(na, n.ins[1], q, state, memo, depth + 1);
          if (t.top) return ValSet::make_top();
          for (const Bits& b : t.vals) out.insert(b);
        }
        if (may0) {
          const ValSet e = eval(na, n.ins[2], q, state, memo, depth + 1);
          if (e.top) return ValSet::make_top();
          for (const Bits& b : e.vals) out.insert(b);
        }
        if (out.vals.size() > kMaxSet) return ValSet::make_top();
        return out;
      }
      default:
        break;
    }
    // Generic operator: cross product of the operand sets.
    std::vector<ValSet> ops;
    std::size_t combos = 1;
    for (const NodeId in : n.ins) {
      ValSet v = eval(na, in, q, state, memo, depth + 1);
      if (v.top) return ValSet::make_top();
      combos *= v.vals.size();
      if (combos == 0 || combos > 64) return ValSet::make_top();
      ops.push_back(std::move(v));
    }
    ValSet out;
    std::vector<std::size_t> pick(ops.size(), 0);
    for (;;) {
      std::vector<Bits> operand;
      operand.reserve(ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i)
        operand.push_back(ops[i].vals[pick[i]]);
      out.insert(rtl::eval_op(
          n, [&](std::size_t i) -> const Bits& { return operand[i]; }));
      if (out.vals.size() > kMaxSet) return ValSet::make_top();
      std::size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < ops[i].vals.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
    }
    return out;
  }
};

}  // namespace

Report lint_module(const Module& m, const Options& opt) {
  return ModuleLinter(m, opt).run();
}

}  // namespace osss::lint
