// testutil.hpp — shared fixtures for the test suite.

#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "meta/class_desc.hpp"
#include "verify/cosim.hpp"

namespace osss::testutil {

/// Co-simulates `duts` (one lane count) against `reference` built once per
/// lane (verify::ReplicaModel): `sequences` runs of `cycles` cycles of
/// StimGen(seed) stimulus on `design`'s ports, every lane scored.  Fails
/// the test on a mismatch or a short vector count, and returns the run.
template <class Design>
verify::RunResult expect_lanes_match(
    const Design& design, const verify::ReplicaModel::Factory& reference,
    std::vector<std::unique_ptr<verify::Model>> duts, std::uint64_t seed,
    unsigned cycles, unsigned sequences = 1) {
  const unsigned lanes = duts.front()->lanes();
  verify::CoSim cs;
  cs.add(std::make_unique<verify::ReplicaModel>(lanes, reference));
  for (auto& dut : duts) cs.add_model(std::move(dut));
  cs.declare_io(design);
  verify::StimGen gen(seed);
  cs.declare_stimulus(gen);
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
