// equiv.cpp — gate::check_equivalence as a thin wrapper over verify::CoSim.
//
// The historical bespoke lockstep loop is gone: both netlists are attached
// to one co-simulation (each on its requested engine) and scored by the
// shared scoreboard.  This file lives in the verify library because the
// co-sim depends on the gate library; the public interface stays
// gate/equiv.hpp.

#include "gate/equiv.hpp"

#include <atomic>
#include <memory>
#include <sstream>

#include "par/pool.hpp"
#include "verify/cosim.hpp"
#include "verify/stimgen.hpp"

namespace osss::gate {

namespace {

std::string interface_of(const Netlist& n) {
  std::ostringstream os;
  for (const Bus& bus : n.inputs())
    os << "i:" << bus.name << ":" << bus.nets.size() << ";";
  for (const Bus& bus : n.outputs())
    os << "o:" << bus.name << ":" << bus.nets.size() << ";";
  return os.str();
}

}  // namespace

std::uint64_t derive_equiv_seed(const Netlist& a, const Netlist& b) {
  return verify::StimGen::derive(0x0551e9u, a.name() + "|" + b.name());
}

EquivResult check_equivalence(const Netlist& a, const Netlist& b,
                              const EquivOptions& opt) {
  EquivResult result;
  if (interface_of(a) != interface_of(b)) {
    result.counterexample = "interface mismatch: [" + interface_of(a) +
                            "] vs [" + interface_of(b) + "]";
    return result;
  }

  result.seed = opt.seed != 0 ? opt.seed : derive_equiv_seed(a, b);
  if (opt.sequences == 0) {
    result.equivalent = true;
    return result;
  }

  // Every sequence is an independent shard: its own pair of gate models,
  // its own derived seed.  Shards run on the pool; once some shard fails,
  // shards with a HIGHER index may be skipped (their vectors can never be
  // part of the deterministic result), but every shard at or below the
  // lowest failing index always runs, so verdict, counterexample and
  // cycles_checked are identical for any thread count.
  const unsigned seqs = opt.sequences;
  std::atomic<unsigned> first_fail{seqs};

  // One lane count for both sides: a kEvent side facing a kNative side
  // runs as one event engine per native lane.
  const bool any_native =
      opt.mode_a == SimMode::kNative || opt.mode_b == SimMode::kNative;
  const unsigned lanes =
      !any_native ? 1 : opt.lanes == 0 ? Simulator::kLanes : opt.lanes;
  const auto model = [&](const Netlist& nl, SimMode mode,
                         const char* name) -> std::unique_ptr<verify::Model> {
    const bool native = mode == SimMode::kNative;
    const auto one = [&] {
      return std::make_unique<verify::GateModel>(
          nl, mode, native ? opt.lanes : 0, opt.codegen, name);
    };
    if (native || lanes == 1) return one();
    return std::make_unique<verify::ReplicaModel>(lanes, one);
  };

  struct SeqOut {
    verify::RunResult run;
    bool ran = false;
  };

  const auto run_shard = [&](std::size_t s) {
    SeqOut out;
    if (static_cast<unsigned>(s) > first_fail.load(std::memory_order_acquire))
      return out;
    verify::CoSim cs;
    cs.add_model(model(a, opt.mode_a, "a"));
    cs.add_model(model(b, opt.mode_b, "b"));
    cs.declare_io(a);
    verify::StimGen gen(verify::StimGen::derive(
        result.seed, "seq/" + std::to_string(s)));
    cs.declare_stimulus(gen);
    out.run = cs.run(gen, opt.cycles, 1);
    out.ran = true;
    if (!out.run.ok) {
      unsigned cur = first_fail.load(std::memory_order_relaxed);
      while (static_cast<unsigned>(s) < cur &&
             !first_fail.compare_exchange_weak(cur, static_cast<unsigned>(s),
                                               std::memory_order_acq_rel))
        ;
    }
    return out;
  };

  std::unique_ptr<par::Pool> own;
  if (opt.threads != 0) own = std::make_unique<par::Pool>(opt.threads);
  par::Pool& pool = own ? *own : par::Pool::global();
  const std::vector<SeqOut> outs =
      pool.parallel_map<SeqOut>(seqs, run_shard);

  unsigned fail = seqs;
  for (unsigned s = 0; s < seqs; ++s)
    if (outs[s].ran && !outs[s].run.ok) {
      fail = s;
      break;
    }
  for (unsigned s = 0; s < seqs && s <= fail; ++s)
    if (outs[s].ran) result.cycles_checked += outs[s].run.vectors;
  if (fail == seqs) {
    result.equivalent = true;
    return result;
  }

  verify::Mismatch mismatch = outs[fail].run.mismatch;
  mismatch.sequence = fail;
  std::vector<verify::IoDecl> decls;
  for (const Bus& bus : a.inputs())
    decls.push_back(
        verify::IoDecl{bus.name, static_cast<unsigned>(bus.nets.size())});
  std::ostringstream os;
  os << mismatch.describe(decls, lanes > 1) << "(seed " << result.seed << ")";
  result.counterexample = os.str();
  return result;
}

EquivResult check_equivalence(const Netlist& a, const Netlist& b,
                              unsigned sequences, unsigned cycles,
                              std::uint64_t seed, SimMode mode) {
  EquivOptions opt;
  opt.sequences = sequences;
  opt.cycles = cycles;
  opt.seed = seed;
  opt.mode_a = mode;
  opt.mode_b = mode;
  return check_equivalence(a, b, opt);
}

}  // namespace osss::gate
