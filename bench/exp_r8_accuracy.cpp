// R8 — "What we found out is that the behavior on every stage is bit and
// cycle accurate and fully complies with its original description." (§12)
//
// Randomized lockstep co-simulation of every behavioural ExpoCU component
// across all three representations (behavioural interpreter, synthesized
// RTL, mapped gate netlist) using the unified verify::CoSim scoreboard.
// Beyond the paper's mismatch count (which must be zero), the run now
// reports what the random stimulus actually exercised: FSM state and
// transition coverage on the behavioural controller and net toggle
// coverage on the gate netlist.  The run fails if any component scores
// below 90% FSM-state coverage or shows zero net toggles — a silent
// stimulus would make the zero-mismatch claim vacuous.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "expocu/hw.hpp"
#include "gate/lower.hpp"
#include "hls/synth.hpp"
#include "par/pool.hpp"
#include "verify/cosim.hpp"
#include "verify/parallel.hpp"
#include "verify/stimgen.hpp"

using namespace osss;
using namespace osss::expocu;

namespace {

struct Row {
  verify::RunResult run;
  double fsm_state_pct = 0;
  std::uint64_t transitions = 0;
  unsigned transition_total = 0;
  double toggle_pct = 0;
  std::uint64_t toggled = 0;
};

// The R8 stimulus mix: sticky bursts on control bits, corner-biased values
// on wider buses (shared by the serial table and the sharded campaigns).
void declare_r8_stimulus(verify::CoSim& cs, verify::StimGen& gen) {
  for (const verify::IoDecl& in : cs.inputs()) {
    verify::StimConstraint c;
    c.kind = in.width == 1 ? verify::StimKind::kSticky
                           : verify::StimKind::kCorner;
    gen.declare(in.name, in.width, c);
  }
}

/// Fresh three-model co-sim of `beh` (interp reference + RTL + gate) with
/// coverage enabled — the factory handed to parallel_fuzz.
std::unique_ptr<verify::CoSim> make_cosim(const hls::Behavior& beh) {
  auto cs = std::make_unique<verify::CoSim>();
  hls::Report report;
  rtl::Module m = hls::synthesize(beh, {}, &report);
  auto& interp = cs->add(std::make_unique<verify::InterpModel>(beh));
  interp.enable_fsm_coverage(report.transitions);
  cs->add(std::make_unique<verify::RtlModel>(std::move(m)));
  auto& gate_model = cs->add(std::make_unique<verify::GateModel>(
      gate::lower_to_gates(hls::synthesize(beh)), gate::SimMode::kEvent,
      "gate"));
  gate_model.enable_toggle_coverage();
  cs->declare_io(beh);
  cs->enable_coverage();
  return cs;
}

Row cosimulate(const char* name, const hls::Behavior& beh, unsigned cycles,
               std::uint64_t seed) {
  const std::unique_ptr<verify::CoSim> cs = make_cosim(beh);

  // Mix of stimulus shapes: control inputs benefit from sticky bursts and
  // corner values, not just white noise — that is what drives the FSMs
  // through their multi-cycle sequences.
  verify::StimGen gen(verify::StimGen::derive(seed, name));
  declare_r8_stimulus(*cs, gen);

  Row row;
  row.run = cs->run(gen, cycles);
  if (const verify::CoverageItem* it =
          row.run.coverage.find("interp", "fsm-state"))
    row.fsm_state_pct = it->percent();
  if (const verify::CoverageItem* it =
          row.run.coverage.find("interp", "fsm-transition")) {
    row.transitions = it->covered;
    row.transition_total = static_cast<unsigned>(it->total);
  }
  if (const verify::CoverageItem* it =
          row.run.coverage.find("gate", "net-toggle")) {
    row.toggle_pct = it->percent();
    row.toggled = it->covered;
  }
  return row;
}

}  // namespace

int main() {
  std::printf("R8: bit/cycle accuracy across representation levels\n");
  std::printf("    (verify::CoSim scoreboard: interp vs RTL vs gate)\n");
  std::printf("%-16s %7s %8s %9s %9s %11s %9s\n", "component", "cycles",
              "checks", "mismatch", "fsm-state", "transitions", "toggle");
  std::uint64_t total_bad = 0;
  bool coverage_ok = true;
  const std::pair<const char*, hls::Behavior> designs[] = {
      {"camera_sync", build_camera_sync_osss()},
      {"threshold_calc", build_threshold_osss()},
      {"param_calc", build_param_calc_osss()},
      {"i2c_master", build_i2c_master_osss()},
      {"i2c_master_sc", build_i2c_master_systemc()},
      {"reset_ctrl", build_reset_ctrl_osss()},
  };
  const std::uint64_t seed = verify::env_seed(1000);
  for (const auto& [name, beh] : designs) {
    const Row row = cosimulate(name, beh, 2000, seed);
    const std::uint64_t bad = row.run.ok ? 0 : 1;
    std::printf("%-16s %7llu %8llu %9llu %8.1f%% %6llu/%-4u %8.1f%%\n", name,
                static_cast<unsigned long long>(row.run.cycles),
                static_cast<unsigned long long>(row.run.checks),
                static_cast<unsigned long long>(bad), row.fsm_state_pct,
                static_cast<unsigned long long>(row.transitions),
                row.transition_total, row.toggle_pct);
    if (!row.run.ok) {
      std::printf("  MISMATCH: %s (seed %llu)\n",
                  row.run.mismatch.describe({}, false).c_str(),
                  static_cast<unsigned long long>(seed));
      ++total_bad;
    }
    if (row.fsm_state_pct < 90.0 || row.toggled == 0) {
      std::printf("  COVERAGE FLOOR VIOLATED (need >=90%% fsm-state, >0 "
                  "toggled nets; seed %llu)\n",
                  static_cast<unsigned long long>(seed));
      coverage_ok = false;
    }
  }
  std::printf("\npaper: bit- and cycle-accurate at every stage -> %s\n",
              total_bad == 0 ? "reproduced (0 mismatches)" : "VIOLATED");
  std::printf("stimulus quality: %s\n",
              coverage_ok ? "coverage floors met (>=90% fsm-state, "
                            "nonzero toggle on every component)"
                          : "COVERAGE FLOOR VIOLATED");

  // Sharded fuzz throughput: the same components as an 8-shard campaign on
  // the work-stealing pool.  Results (mismatches, coverage) are
  // bit-identical for any OSSS_THREADS; only kvec/s moves.
  osss::par::Pool& pool = osss::par::Pool::global();
  std::printf("\nsharded fuzz campaigns (8 shards x 250 cycles, %u pool "
              "contexts):\n",
              pool.size());
  std::printf("%-16s %8s %9s %9s %9s %8s %9s\n", "component", "vectors",
              "checks", "kvec/s", "fsm-state", "failures", "rec-bytes");
  std::uint64_t fuzz_bad = 0;
  for (const auto& [name, beh] : designs) {
    const hls::Behavior* bp = &beh;
    verify::ShardOptions sopt;
    sopt.seed = verify::StimGen::derive(seed, std::string(name) + "/sharded");
    sopt.shards = 8;
    sopt.cycles = 250;
    sopt.pool = &pool;
    sopt.declare = declare_r8_stimulus;
    const auto t0 = std::chrono::steady_clock::now();
    const verify::ShardedRunResult r =
        verify::parallel_fuzz([bp] { return make_cosim(*bp); }, sopt);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    double fsm_pct = 0;
    if (const verify::CoverageItem* it = r.coverage.find("interp", "fsm-state"))
      fsm_pct = it->percent();
    std::printf("%-16s %8llu %9llu %9.0f %8.1f%% %8zu %9llu\n", name,
                static_cast<unsigned long long>(r.vectors),
                static_cast<unsigned long long>(r.checks),
                secs > 0 ? static_cast<double>(r.vectors) / secs / 1000.0 : 0,
                fsm_pct, r.failures.size(),
                static_cast<unsigned long long>(r.recorder_bytes));
    if (const verify::ShardFailure* f = r.first_failure()) {
      std::printf("  SHARD MISMATCH: %s (campaign seed %llu, shard seed "
                  "%llu)\n",
                  f->mismatch.describe(f->trace.inputs, true).c_str(),
                  static_cast<unsigned long long>(sopt.seed),
                  static_cast<unsigned long long>(f->seed));
      fuzz_bad += r.failures.size();
    }
  }
  std::printf("sharded campaigns: %s\n",
              fuzz_bad == 0 ? "0 mismatches (deterministic across "
                              "OSSS_THREADS)"
                            : "MISMATCHES FOUND");
  return total_bad == 0 && coverage_ok && fuzz_bad == 0 ? 0 : 1;
}
