// testutil.hpp — shared fixtures for the test suite.

#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "jit/jit.hpp"
#include "meta/class_desc.hpp"
#include "verify/cosim.hpp"

namespace osss::testutil {

/// The entry points a generated tape / gate object exports.
inline const std::vector<std::string> kTapeAbi = {
    "osss_tape_eval",  "osss_tape_step",  "osss_tape_abi",
    "osss_tape_lanes", "osss_tape_arena", "osss_tape_scratch"};
inline const std::vector<std::string> kGateAbi = {
    "osss_gate_eval",  "osss_gate_step", "osss_gate_abi",
    "osss_gate_lanes", "osss_gate_nets", "osss_gate_scratch"};

/// The part-list contract of a generated design: every part includes
/// <cstdint> once and nothing else and names no intrinsic; the `osss_`
/// symbols, `abi` among them, sit in one part only; and every other
/// C-linkage function is declared hidden.
inline void expect_parts_well_formed(const jit::Parts& parts,
                                     const std::vector<std::string>& abi) {
  ASSERT_FALSE(parts.empty());
  std::size_t abi_parts = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& src = parts[i];
    SCOPED_TRACE("part " + std::to_string(i) + " of " +
                 std::to_string(parts.size()) + ": " + src.substr(0, 200));
    std::size_t includes = 0;
    for (std::size_t at = src.find("#include"); at != std::string::npos;
         at = src.find("#include", at + 1)) {
      ++includes;
      EXPECT_EQ(src.compare(at, 18, "#include <cstdint>"), 0)
          << src.substr(at, src.find('\n', at) - at);
    }
    EXPECT_EQ(includes, 1u);
    for (const char* token : {"_mm", "__m256i", "__m512i", "immintrin"})
      EXPECT_EQ(src.find(token), std::string::npos) << token;
    if (src.find("osss_") != std::string::npos) {
      ++abi_parts;
      for (const std::string& sym : abi)
        EXPECT_NE(src.find(sym), std::string::npos) << sym;
    }
    const std::string c_linkage = "extern \"C\" ";
    const std::string hidden = jit::hidden_function();
    for (std::size_t at = src.find(c_linkage); at != std::string::npos;
         at = src.find(c_linkage, at + 1)) {
      if (src.compare(at, hidden.size(), hidden) == 0) continue;
      const std::size_t decl = at + c_linkage.size();
      const std::string head = src.substr(decl, src.find('(', decl) - decl);
      EXPECT_EQ(head.compare(head.rfind(' ') + 1, 5, "osss_"), 0)
          << "exported non-ABI function: " << head;
    }
  }
  EXPECT_EQ(abi_parts, 1u) << "the osss_ symbols must sit in one part";
}

/// Co-simulates `duts` (one lane count) against `reference` built once per
/// lane (verify::ReplicaModel): `sequences` runs of `cycles` cycles of
/// StimGen(seed) stimulus on `design`'s ports, every lane scored.  Lane 0
/// follows `stim`; the other lanes are uniform.  Fails the test on a
/// mismatch or a short vector count, and returns the run.
template <class Design>
verify::RunResult expect_lanes_match(
    const Design& design, const verify::ReplicaModel::Factory& reference,
    std::vector<std::unique_ptr<verify::Model>> duts, std::uint64_t seed,
    unsigned cycles, unsigned sequences = 1,
    verify::StimConstraint stim = {}) {
  const unsigned lanes = duts.front()->lanes();
  verify::CoSim cs;
  cs.add(std::make_unique<verify::ReplicaModel>(lanes, reference));
  for (auto& dut : duts) cs.add_model(std::move(dut));
  cs.declare_io(design);
  verify::StimGen gen(seed);
  cs.declare_stimulus(gen, stim);
  verify::RunResult r = cs.run(gen, cycles, sequences);
  EXPECT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), lanes > 1) << " x"
                    << lanes << " seed " << seed;
  EXPECT_EQ(r.vectors, std::uint64_t{cycles} * sequences * lanes);
  return r;
}

/// One RTL interpreter, the reference of expect_lanes_match on a module.
inline verify::ReplicaModel::Factory interp(const rtl::Module& m) {
  return [&m] { return std::make_unique<verify::RtlModel>(m); };
}

/// One gate event engine, the reference of expect_lanes_match on a
/// netlist.
inline verify::ReplicaModel::Factory event(const gate::Netlist& nl) {
  return [&nl] {
    return std::make_unique<verify::GateModel>(nl, gate::SimMode::kEvent,
                                               "event");
  };
}

/// `models` as a vector (initializer lists cannot hold move-only values).
template <class... M>
std::vector<std::unique_ptr<verify::Model>> models(std::unique_ptr<M>... m) {
  std::vector<std::unique_ptr<verify::Model>> out;
  (out.push_back(std::move(m)), ...);
  return out;
}

/// The paper's SyncRegister<REGSIZE, RESETVALUE> as the analyzer sees it:
/// a shift register with reset value, LSB-in Write and rising-edge detect
/// at a fixed index.
inline meta::ClassDesc make_sync_register(unsigned regsize,
                                          std::uint64_t resetvalue) {
  using namespace meta;
  ClassDesc c("SyncRegister_" + std::to_string(regsize) + "_" +
              std::to_string(resetvalue));
  c.add_member("RegValue", regsize);

  MethodDesc ctor;
  ctor.name = "__ctor__";
  ctor.body = {assign_member("RegValue", constant(regsize, resetvalue))};
  c.add_method(std::move(ctor));

  MethodDesc reset;
  reset.name = "Reset";
  reset.body = {assign_member("RegValue", constant(regsize, resetvalue))};
  c.add_method(std::move(reset));

  MethodDesc write;
  write.name = "Write";
  write.params = {{"NewValue", 1}};
  if (regsize > 1) {
    write.body = {assign_member(
        "RegValue", concat({slice(member("RegValue", regsize), regsize - 2, 0),
                            param("NewValue", 1)}))};
  } else {
    write.body = {assign_member("RegValue", param("NewValue", 1))};
  }
  c.add_method(std::move(write));

  MethodDesc rising;  // newest sample high, previous low
  rising.name = "RisingEdge";
  rising.return_width = 1;
  rising.is_const = true;
  rising.body = {return_stmt(band(slice(member("RegValue", regsize), 0, 0),
                                  bnot(slice(member("RegValue", regsize), 1,
                                             1))))};
  c.add_method(std::move(rising));
  return c;
}

/// A small accumulator class used by the shared-object tests.
inline meta::ClassPtr make_counter_class(unsigned width) {
  using namespace meta;
  auto c = std::make_shared<ClassDesc>("Counter" + std::to_string(width));
  c->add_member("value", width);

  MethodDesc add;
  add.name = "Add";
  add.params = {{"d", width}};
  add.body = {assign_member("value",
                            meta::add(member("value", width),
                                      param("d", width)))};
  c->add_method(std::move(add));

  MethodDesc get;
  get.name = "Get";
  get.return_width = width;
  get.is_const = true;
  get.body = {return_stmt(member("value", width))};
  c->add_method(std::move(get));

  MethodDesc clear;
  clear.name = "Clear";
  clear.body = {assign_member("value", constant(width, 0))};
  c->add_method(std::move(clear));
  return c;
}

}  // namespace osss::testutil
