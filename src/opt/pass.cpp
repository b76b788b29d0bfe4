#include "opt/pass.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "gate/equiv.hpp"
#include "gate/timing.hpp"
#include "opt/retime.hpp"
#include "opt/rewrite.hpp"
#include "opt/satsweep.hpp"
#include "opt/techmap.hpp"
#include "par/env.hpp"
#include "verify/stimgen.hpp"

namespace osss::opt {

namespace {

/// Differential self-check budget per pass invocation: sequences of
/// 64-lane cycles.
constexpr unsigned kCheckSequences = 2;
constexpr unsigned kCheckCycles = 64;

const gate::Library& lib_or_generic(const gate::Library* lib) {
  static const gate::Library generic = gate::Library::generic();
  return lib ? *lib : generic;
}

std::size_t logic_depth(const gate::Netlist& nl) {
  std::size_t depth = 0;
  for (const std::uint32_t lvl : nl.topo_levels())
    if (lvl != gate::kNoLevel)
      depth = std::max(depth, static_cast<std::size_t>(lvl) + 1);
  return depth;
}

void fill_before(PassStats& s, const gate::Netlist& nl,
                 const gate::Library& lib) {
  s.cells_before = nl.cells().size();
  s.gates_before = nl.gate_count();
  s.dffs_before = nl.dff_count();
  s.depth_before = logic_depth(nl);
  s.area_before = lib.area_of(nl);
}

void fill_after(PassStats& s, const gate::Netlist& nl,
                const gate::Library& lib) {
  s.cells_after = nl.cells().size();
  s.gates_after = nl.gate_count();
  s.dffs_after = nl.dff_count();
  s.depth_after = logic_depth(nl);
  s.area_after = lib.area_of(nl);
}

}  // namespace

std::string PassStats::format() const {
  std::ostringstream os;
  os << pass << ": cells " << cells_before << "->" << cells_after << ", gates "
     << gates_before << "->" << gates_after << ", dffs " << dffs_before << "->"
     << dffs_after << ", depth " << depth_before << "->" << depth_after
     << ", area " << static_cast<long>(area_before + 0.5) << "->"
     << static_cast<long>(area_after + 0.5) << " GE, " << changes
     << " change(s)";
  if (fact_merges != 0 || odc_merges != 0)
    os << " (" << fact_merges << " fact, " << odc_merges << " odc)";
  os << ", " << wall_ms << " ms" << (verified ? ", verified" : "");
  return os.str();
}

Pipeline::Pipeline(PipelineOptions opt) : opt_(opt) {}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

bool Pipeline::self_check_enabled() const {
  if (opt_.self_check >= 0) return opt_.self_check != 0;
#ifdef NDEBUG
  constexpr std::uint64_t fallback = 0;
#else
  constexpr std::uint64_t fallback = 1;
#endif
  return par::env_u64("OSSS_OPT_CHECK", fallback, 0, 1) != 0;
}

Pipeline Pipeline::standard(PipelineOptions opt) {
  Pipeline p(opt);
  SatSweepOptions sweep;
  sweep.facts = opt.facts;
  p.add(std::make_unique<RewritePass>());
  p.add(std::make_unique<SatSweepPass>(sweep));
  p.add(std::make_unique<RetimePass>(opt.lib));
  p.add(std::make_unique<TechMapPass>(opt.lib));
  return p;
}

gate::Netlist Pipeline::run(const gate::Netlist& in) {
  const gate::Library& lib = lib_or_generic(opt_.lib);
  const bool check = self_check_enabled();
  const std::uint64_t base_seed =
      opt_.seed != 0 ? opt_.seed
                     : verify::StimGen::derive(0x09717, "opt/" + in.name());

  gate::Netlist current = in;
  for (unsigned round = 0; round < opt_.max_rounds; ++round) {
    std::size_t round_changes = 0;
    for (const auto& pass : passes_) {
      PassStats stats;
      stats.pass = pass->name();
      fill_before(stats, current, lib);
      const auto t0 = std::chrono::steady_clock::now();
      gate::Netlist next = pass->run(current, stats);
      stats.wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      fill_after(stats, next, lib);
      if (check) {
        gate::EquivOptions eopt;
        eopt.sequences = kCheckSequences;
        eopt.cycles = kCheckCycles;
        eopt.seed = verify::StimGen::derive(
            base_seed, stats.pass + "/" + std::to_string(round));
        // Both sides on the native engine's interpreted 64-lane sweep:
        // debug builds need no compiler and no pass pays a compile.
        eopt.mode_a = gate::SimMode::kNative;
        eopt.mode_b = gate::SimMode::kNative;
        eopt.codegen.force_fallback = true;
        const gate::EquivResult r =
            gate::check_equivalence(current, next, eopt);
        if (!r) {
          throw PassDivergence("opt::Pipeline: pass '" + stats.pass +
                                 "' broke equivalence on '" + in.name() +
                                 "': " + r.counterexample);
        }
        stats.verified = true;
      }
      round_changes += stats.changes;
      stats_.push_back(std::move(stats));
      current = std::move(next);
    }
    if (round_changes == 0) break;
  }
  return current;
}

gate::Netlist optimize(const gate::Netlist& in, PipelineOptions opt,
                       std::vector<PassStats>* stats) {
  Pipeline p = Pipeline::standard(opt);
  gate::Netlist out = p.run(in);
  if (stats)
    stats->insert(stats->end(), p.stats().begin(), p.stats().end());
  return out;
}

const std::vector<PassInfo>& pass_registry() {
  static const std::vector<PassInfo> registry = {
      {"rewrite", "AIG-style local rewriting (two-level cut rules)",
       []() -> std::unique_ptr<Pass> { return std::make_unique<RewritePass>(); }},
      {"satsweep", "simulation-guided equivalent-net sweeping",
       []() -> std::unique_ptr<Pass> {
         return std::make_unique<SatSweepPass>();
       }},
      {"retime", "forward retiming across combinational cells",
       []() -> std::unique_ptr<Pass> { return std::make_unique<RetimePass>(); }},
      {"techmap", "cut-based technology mapping onto library cells",
       []() -> std::unique_ptr<Pass> {
         return std::make_unique<TechMapPass>();
       }},
  };
  return registry;
}

std::unique_ptr<Pass> make_pass(const std::string& name) {
  for (const PassInfo& info : pass_registry())
    if (name == info.name) return info.make();
  return nullptr;
}

}  // namespace osss::opt
