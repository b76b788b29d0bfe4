// One structural checker per IR: for every malformed module and netlist
// below — the malformed inputs of the RTL and gate lint tests plus write
// ports, output bits, cell arity, memory-read bits and output ports past
// the last node — validate() throws exactly the first RTL-002/RTL-004 or
// GATE-003 finding lint reports, and every simulator rejects the input
// instead of reading out of range.  A broken write port's GATE-003 note
// names its first fault.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gate/sim.hpp"
#include "lint/lint.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"

namespace osss::lint {
namespace {

using gate::Cell;
using gate::CellKind;
using gate::NetId;
using gate::Netlist;
using gate::NetlistSurgeon;
using rtl::Builder;
using rtl::Module;
using rtl::ModuleSurgeon;
using rtl::Wire;

struct RtlCase {
  const char* what;
  std::function<void(Module&, const Wire& x)> damage;
};

/// o = (a & a) | q for a counter q; `damage` breaks it (x is the AND).
Module broken_module(const RtlCase& c) {
  Builder b("m");
  Wire a = b.input("a", 4);
  Wire q = b.reg("q", 4, 0);
  b.connect(q, b.add(q, b.constant(4, 1)));
  Wire x = b.and_(a, a);
  b.output("o", b.or_(x, q));
  Module m = b.take();
  c.damage(m, x);
  return m;
}

const std::vector<RtlCase>& rtl_cases() {
  static const std::vector<RtlCase> kCases = {
      {"width mismatch",
       [](Module& m, const Wire& x) {
         ModuleSurgeon::nodes(m)[x.id].width = 7;
       }},
      {"register without reset",
       [](Module& m, const Wire&) {
         ModuleSurgeon::registers(m)[0].init = rtl::Bits();
       }},
      {"zero width, dangling operand and output past the last node",
       [](Module& m, const Wire& x) {
         auto& nodes = ModuleSurgeon::nodes(m);
         nodes[x.id].ins.push_back(rtl::kInvalidNode);
         nodes[x.id].width = 0;
         ModuleSurgeon::outputs(m).push_back({"ghost", 999});
       }},
      {"output past the last node",
       [](Module& m, const Wire&) {
         ModuleSurgeon::outputs(m)[0].node = 999;
       }},
      {"input past the last node",
       [](Module& m, const Wire&) {
         ModuleSurgeon::inputs(m)[0].node = 999;
       }},
      {"combinational cycle",
       [](Module& m, const Wire& x) {
         ModuleSurgeon::nodes(m)[x.id].ins[1] = x.id;
       }},
  };
  return kCases;
}

struct GateCase {
  const char* what;
  std::function<void(Netlist&)> damage;
};

/// A 4x2 memory written from addr/d/en and read at addr, plus a
/// flip-flop fed by an and2; `damage` breaks it.
Netlist broken_netlist(const GateCase& c) {
  Netlist nl("nl");
  const auto addr = nl.add_input("addr", 2);
  const auto d = nl.add_input("d", 2);
  const auto en = nl.add_input("en", 1);
  const unsigned mem = nl.add_memory("ram", 4, 2);
  nl.mem_write(mem, addr, d, en[0]);
  nl.add_output("q", nl.mem_read(mem, addr));
  const NetId r = nl.dff("r");
  nl.connect_dff(r, nl.and2(addr[0], d[1]));
  nl.add_output("r", {r});
  c.damage(nl);
  return nl;
}

NetId first_cell(Netlist& nl, CellKind kind) {
  const auto& cells = NetlistSurgeon::cells(nl);
  for (NetId id = 0; id < cells.size(); ++id)
    if (cells[id].kind == kind) return id;
  throw std::logic_error("no such cell");
}

const std::vector<GateCase>& gate_cases() {
  static const std::vector<GateCase> kCases = {
      {"output bit past the last cell",
       [](Netlist& nl) { NetlistSurgeon::outputs(nl)[0].nets[1] = 5000; }},
      {"write-port address past the last cell",
       [](Netlist& nl) {
         NetlistSurgeon::memories(nl)[0].writes[0].addr[1] = 5000;
       }},
      {"write-port data past the last cell",
       [](Netlist& nl) {
         NetlistSurgeon::memories(nl)[0].writes[0].data[0] = 5000;
       }},
      {"write-port enable past the last cell",
       [](Netlist& nl) {
         NetlistSurgeon::memories(nl)[0].writes[0].enable = 5000;
       }},
      {"and2 with one input",
       [](Netlist& nl) {
         NetlistSurgeon::cells(nl)[first_cell(nl, CellKind::kAnd2)]
             .ins.pop_back();
       }},
      {"memq bit past the memory width",
       [](Netlist& nl) {
         NetlistSurgeon::cells(nl)[first_cell(nl, CellKind::kMemQ)].param2 = 2;
       }},
      {"unconnected flip-flop",
       [](Netlist& nl) {
         NetlistSurgeon::cells(nl)[first_cell(nl, CellKind::kDff)].ins.clear();
       }},
      {"dangling cell input",
       [](Netlist& nl) {
         NetlistSurgeon::cells(nl)[first_cell(nl, CellKind::kAnd2)].ins[0] =
             999;
       }},
      {"combinational loop",
       [](Netlist& nl) {
         const NetId x = first_cell(nl, CellKind::kAnd2);
         NetlistSurgeon::cells(nl)[x].ins[0] = x;
       }},
      {"write-port data narrower than the memory",
       [](Netlist& nl) {
         NetlistSurgeon::memories(nl)[0].writes[0].data.pop_back();
       }},
  };
  return kCases;
}

/// The message validate() throws, or "" when it accepts.
template <class Ir>
std::string validate_message(const Ir& ir) {
  try {
    ir.validate();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// The first diagnostic of one of `rules`, or nullptr.
const Diagnostic* first_of(const Report& r,
                           const std::vector<std::string>& rules) {
  for (const Diagnostic& d : r.diags())
    for (const std::string& rule : rules)
      if (d.rule == rule) return &d;
  return nullptr;
}

TEST(MalformedIr, RtlValidateThrowsTheFirstStructuralFinding) {
  for (const RtlCase& c : rtl_cases()) {
    const Module m = broken_module(c);
    const Report r = lint_module(m);
    const std::string thrown = validate_message(m);
    ASSERT_FALSE(thrown.empty()) << c.what;
    const Diagnostic* first = first_of(r, {"RTL-002", "RTL-004"});
    if (first == nullptr) {
      EXPECT_TRUE(r.has("RTL-001")) << c.what << "\n" << r.text();
      EXPECT_EQ(thrown, "rtl::Module m: combinational cycle detected");
    } else {
      EXPECT_EQ(thrown, "rtl::Module m: " + first->message)
          << c.what << "\n" << r.text();
    }
  }
}

TEST(MalformedIr, GateValidateThrowsTheFirstStructuralFinding) {
  for (const GateCase& c : gate_cases()) {
    const Netlist nl = broken_netlist(c);
    const Report r = lint_netlist(nl);
    const std::string thrown = validate_message(nl);
    ASSERT_FALSE(thrown.empty()) << c.what;
    const Diagnostic* first = first_of(r, {"GATE-003"});
    if (first == nullptr) {
      EXPECT_TRUE(r.has("GATE-001")) << c.what << "\n" << r.text();
      EXPECT_EQ(thrown, "gate::Netlist nl: combinational cycle");
    } else {
      EXPECT_EQ(thrown, "gate::Netlist nl: " + first->message)
          << c.what << "\n" << r.text();
    }
  }
}

TEST(MalformedIr, NewFindingsNameTheBrokenPortAndBit) {
  const Report port = lint_module(broken_module(rtl_cases()[3]));
  ASSERT_TRUE(port.has("RTL-002")) << port.text();
  EXPECT_EQ(port.by_rule("RTL-002")[0].object, "o");
  EXPECT_EQ(port.by_rule("RTL-002")[0].message,
            "output 'o' bound past the last node");

  const Report bit = lint_netlist(broken_netlist(gate_cases()[5]));
  ASSERT_TRUE(bit.has("GATE-003")) << bit.text();
  EXPECT_EQ(bit.by_rule("GATE-003")[0].message,
            "memq reads a data bit the memory does not have");
  EXPECT_EQ(bit.by_rule("GATE-003")[0].note, "bit 2 of a 2-bit memory");
}

TEST(MalformedIr, WritePortNoteNamesTheFault) {
  const auto note = [](std::size_t gate_case) {
    const Report r = lint_netlist(broken_netlist(gate_cases()[gate_case]));
    const auto found = r.by_rule("GATE-003");
    return found.empty() ? std::string("(no GATE-003)") : found[0].note;
  };
  EXPECT_EQ(note(1), "address bit 1 is unconnected");
  EXPECT_EQ(note(2), "data bit 0 is unconnected");
  EXPECT_EQ(note(3), "enable net is unconnected");
  EXPECT_EQ(note(9), "data bus width does not match the memory");
}

TEST(MalformedIr, SimulatorsRejectInsteadOfReadingOutOfRange) {
  jit::CompileOptions fallback;
  fallback.force_fallback = true;
  for (const RtlCase& c : rtl_cases()) {
    for (const rtl::SimMode mode :
         {rtl::SimMode::kInterp, rtl::SimMode::kTape, rtl::SimMode::kNative})
      EXPECT_THROW(rtl::Simulator(broken_module(c), mode, 1, fallback),
                   std::logic_error)
          << c.what << " " << rtl::sim_mode_name(mode);
  }
  for (const GateCase& c : gate_cases()) {
    EXPECT_THROW(gate::Simulator(broken_netlist(c), gate::SimMode::kEvent),
                 std::logic_error)
        << c.what;
    EXPECT_THROW(
        gate::Simulator(broken_netlist(c), gate::SimMode::kNative, 64,
                        fallback),
        std::logic_error)
        << c.what;
  }
}

}  // namespace
}  // namespace osss::lint
