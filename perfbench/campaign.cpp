// campaign.cpp — the verification job: R8's sharded lockstep co-simulation
// of the six behavioural ExpoCU components through verify::parallel_fuzz.
// Each shard co-simulates the behavioural interpreter (the reference), the
// synthesized RTL on the interpreter engine and the lowered gates on the
// event-driven engine, with R8's sticky/corner stimulus and coverage on,
// on a private par::Pool of min(nproc, 4) contexts.
//
// In the traced run every model is wrapped in a TimedModel that adds the
// duration of each call into its shard's clock; a shard's busy time is its
// first to its last model call, and what is not model time is the
// scoreboard and stimulus code of verify.

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "expocu/hw.hpp"
#include "gate/lower.hpp"
#include "hls/synth.hpp"
#include "par/pool.hpp"
#include "trace.hpp"
#include "verify/cosim.hpp"
#include "verify/parallel.hpp"
#include "verify/stimgen.hpp"

namespace perfbench {
namespace {

using namespace osss;

constexpr unsigned kShards = 8;
constexpr unsigned kCycles = 1000;
/// R8's coverage floors, per design.
constexpr double kMinFsmStatePct = 90.0;

enum Slot { kHls, kRtl, kGate, kSlots };

/// Busy-time clock of one shard, written only by the thread running it
/// (on every model call, so each clock has a cache line of its own).
struct alignas(64) ShardClock {
  double model_s[kSlots] = {};
  std::uint64_t calls[kSlots] = {};
  Clock::time_point first{}, last{};
  bool started = false;
  std::thread::id thread;
};

/// Times one model call into a shard clock.
class Timed {
 public:
  Timed(ShardClock& c, Slot slot) : c_(c), slot_(slot), t0_(Clock::now()) {
    if (!c_.started) {
      c_.started = true;
      c_.first = t0_;
      c_.thread = std::this_thread::get_id();
    }
  }
  ~Timed() {
    const auto t1 = Clock::now();
    c_.model_s[slot_] += std::chrono::duration<double>(t1 - t0_).count();
    ++c_.calls[slot_];
    c_.last = t1;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  ShardClock& c_;
  Slot slot_;
  Clock::time_point t0_;
};

/// What timing one call costs, measured once so the traced split can take
/// it out again: `inside` lands in a model's time, the rest of `total` in
/// the time between calls (the scoreboard's).
struct TimerCost {
  double inside = 0.0, total = 0.0;
};

TimerCost calibrate_timer() {
  constexpr int kCalls = 200000;
  ShardClock c;
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) Timed t(c, kHls);
  return {c.model_s[kHls] / kCalls, seconds_since(t0) / kCalls};
}

/// Forwards every call to the wrapped model and adds its duration to the
/// shard's clock.
class TimedModel final : public verify::Model {
 public:
  TimedModel(std::unique_ptr<verify::Model> inner, ShardClock& clock,
             Slot slot)
      : Model(inner->name()),
        inner_(std::move(inner)),
        clock_(clock),
        slot_(slot) {}

  unsigned lanes() const override { return inner_->lanes(); }
  void reset() override {
    Timed t(clock_, slot_);
    inner_->reset();
  }
  void set_input(const std::string& name, const verify::Bits& value) override {
    Timed t(clock_, slot_);
    inner_->set_input(name, value);
  }
  void set_input_lanes(const std::string& name,
                       const std::vector<std::uint64_t>& lanes) override {
    Timed t(clock_, slot_);
    inner_->set_input_lanes(name, lanes);
  }
  verify::Bits output(const std::string& name) override {
    Timed t(clock_, slot_);
    return inner_->output(name);
  }
  verify::Bits output_lane(const std::string& name, unsigned lane) override {
    Timed t(clock_, slot_);
    return inner_->output_lane(name, lane);
  }
  std::vector<std::uint64_t> output_words(const std::string& name,
                                          unsigned width) override {
    Timed t(clock_, slot_);
    return inner_->output_words(name, width);
  }
  void step() override {
    Timed t(clock_, slot_);
    inner_->step();
  }
  void sample_coverage() override {
    Timed t(clock_, slot_);
    inner_->sample_coverage();
  }
  void report_coverage(verify::CoverageReport& r) const override {
    inner_->report_coverage(r);
  }

 private:
  std::unique_ptr<verify::Model> inner_;
  ShardClock& clock_;
  Slot slot_;
};

// R8's stimulus mix: sticky bursts on control bits, corner-biased values on
// wider buses.
void declare_r8_stimulus(verify::CoSim& cs, verify::StimGen& gen) {
  for (const verify::IoDecl& in : cs.inputs()) {
    verify::StimConstraint c;
    c.kind = in.width == 1 ? verify::StimKind::kSticky
                           : verify::StimKind::kCorner;
    gen.declare(in.name, in.width, c);
  }
}

struct Design {
  const char* name;
  hls::Behavior beh;
};

class CampaignJob final : public Job {
 public:
  CampaignJob(const Options& opt, HostSpeed& host, Tracer& tr)
      : opt_(opt),
        host_(host),
        tr_(tr),
        designs_{{"camera_sync", expocu::build_camera_sync_osss()},
                 {"threshold_calc", expocu::build_threshold_osss()},
                 {"param_calc", expocu::build_param_calc_osss()},
                 {"i2c_master", expocu::build_i2c_master_osss()},
                 {"i2c_master_sc", expocu::build_i2c_master_systemc()},
                 {"reset_ctrl", expocu::build_reset_ctrl_osss()}},
        pool_(std::min(std::max(1u, std::thread::hardware_concurrency()), 4u)),
        pool0_(pool_.stats()),
        plant_(opt.fault == "campaign") {}

  void step() override {
    unpin_cpu();
    std::uint64_t covered = 0, total = 0;
    for (const Design& d : designs_) {
      std::vector<std::unique_ptr<ShardClock>> clocks;
      const auto make = [&]() -> std::unique_ptr<verify::CoSim> {
        Tracer::Span s(tr_, "verify.build");
        auto cs = std::make_unique<verify::CoSim>();
        hls::Report report;
        rtl::Module m = [&] {
          Tracer::Span h(tr_, "hls.synth");
          return hls::synthesize(d.beh, {}, &report);
        }();
        gate::Netlist nl = [&] {
          Tracer::Span g(tr_, "gate.lower");
          return gate::lower_to_gates(m);
        }();
        if (plant_) plant_ = !plant_output_fault(nl);  // one co-sim only
        auto interp = std::make_unique<verify::InterpModel>(d.beh);
        interp->enable_fsm_coverage(report.transitions);
        auto rtl_model = std::make_unique<verify::RtlModel>(std::move(m));
        auto gate_model = std::make_unique<verify::GateModel>(
            std::move(nl), gate::SimMode::kEvent, "gate");
        gate_model->enable_toggle_coverage();
        if (tr_.enabled()) {
          clocks.push_back(std::make_unique<ShardClock>());
          ShardClock& c = *clocks.back();
          cs->add_model(std::make_unique<TimedModel>(std::move(interp), c,
                                                     kHls));
          cs->add_model(std::make_unique<TimedModel>(std::move(rtl_model), c,
                                                     kRtl));
          cs->add_model(std::make_unique<TimedModel>(std::move(gate_model),
                                                     c, kGate));
        } else {
          cs->add_model(std::move(interp));
          cs->add_model(std::move(rtl_model));
          cs->add_model(std::move(gate_model));
        }
        cs->declare_io(d.beh);
        cs->enable_coverage();
        return cs;
      };
      verify::ShardOptions so;
      so.seed = verify::StimGen::derive(
          opt_.seed, "campaign/" + std::to_string(passes_) + "/" + d.name);
      so.shards = kShards;
      so.cycles = kCycles;
      so.pool = &pool_;
      so.declare = declare_r8_stimulus;

      verify::ShardedRunResult r;
      double seconds = 0.0;
      host_.probe();
      {
        Tracer::Span s(tr_, std::string("verify.parallel_fuzz.") + d.name);
        const auto c0 = Clock::now();
        try {
          r = verify::parallel_fuzz(make, so);
        } catch (const std::exception& e) {
          tally_.fail(std::string("campaign ") + d.name + ": " + e.what(),
                      kShards);
          continue;
        }
        seconds = seconds_since(c0);
        if (tr_.enabled()) split(clocks);
      }
      design_t_[d.name].add(seconds, host_.probe());
      vectors_per_pass_[d.name] = r.vectors;
      vectors_ += r.vectors;
      checks_ += r.checks;
      mismatches_ += r.failures.size();
      recorder_bytes_ = std::max(recorder_bytes_, r.recorder_bytes);

      const verify::CoverageItem* state =
          r.coverage.find("interp", "fsm-state");
      const verify::CoverageItem* trans =
          r.coverage.find("interp", "fsm-transition");
      const verify::CoverageItem* toggle =
          r.coverage.find("gate", "net-toggle");
      if (trans) {
        covered += trans->covered;
        total += trans->total;
      }
      const bool floors = state && state->percent() >= kMinFsmStatePct &&
                          toggle && toggle->covered > 0;
      if (!floors) {
        tally_.fail(std::string("campaign ") + d.name +
                        ": below R8's coverage floors (fsm-state " +
                        std::to_string(state ? state->percent() : 0.0) +
                        "%, toggled nets " +
                        std::to_string(toggle ? toggle->covered : 0) + ")",
                    kShards);
      } else {
        for (const verify::ShardFailure& f : r.failures)
          tally_.fail(std::string("campaign ") + d.name + " shard " +
                      std::to_string(f.shard) + ": " +
                      f.mismatch.describe(f.trace.inputs, true));
        tally_.pass(kShards - r.failures.size());
      }
    }
    if (passes_ == 0 && total > 0)
      coverage_pct_ = 100.0 * static_cast<double>(covered) /
                      static_cast<double>(total);
    ++passes_;
  }

  JobResult finish() override {
    JobResult out;
    out.tally = tally_;
    if (passes_ == 0) return out;
    // Host interference only ever adds time, so the rate is taken from each
    // design's fastest campaign over the passes (every pass scores the same
    // number of vectors per design).
    const auto fastest = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    double fastest_s = 0.0, fastest_as_timed = 0.0, pass_vectors = 0.0;
    for (const auto& [name, t] : design_t_) {
      fastest_s += fastest(t.at_reference(host_));
      fastest_as_timed += fastest(t.as_timed);
      pass_vectors += static_cast<double>(vectors_per_pass_.at(name));
    }
    const auto rate = [&](double seconds) {
      return seconds > 0 ? pass_vectors / seconds : 0.0;
    };
    auto& m = out.end_to_end;
    m["campaign_vectors_per_s"] = {rate(fastest_s), "vectors/s"};
    out.raw["campaign_vectors_per_s"] = {rate(fastest_as_timed), "vectors/s"};
    m["campaign_coverage_pct"] = {coverage_pct_, "%"};
    if (!tr_.enabled()) return out;

    // Per campaign pass (six designs), independent of the pass count.  The
    // timer's own cost is taken out of the model and scoreboard split.
    const double n = passes_;
    const auto span = [&](const char* name) {
      return tr_.span_total(name, "job.campaign") / n;
    };
    const par::Pool::Stats pool1 = pool_.stats();
    const TimerCost cost = calibrate_timer();
    double model_s[kSlots], models = 0.0;
    std::uint64_t all_calls = 0;
    for (int k = 0; k < kSlots; ++k) {
      model_s[k] = std::max(0.0, model_s_[k] - calls_[k] * cost.inside);
      models += model_s[k];
      all_calls += calls_[k];
    }
    const double busy = busy_s_ - all_calls * cost.total;
    auto& p = out.per_layer;
    p["campaign.hls.synth_s"] = {span("hls.synth"), "s"};
    p["campaign.gate.lower_s"] = {span("gate.lower"), "s"};
    p["campaign.verify.build_s"] = {span("verify.build"), "s"};
    p["campaign.hls.interp_s"] = {model_s[kHls] / n, "s"};
    p["campaign.rtl.interp_s"] = {model_s[kRtl] / n, "s"};
    p["campaign.gate.event_s"] = {model_s[kGate] / n, "s"};
    p["campaign.verify.scoreboard_s"] = {(busy - models) / n, "s"};
    p["campaign.par.busy_fraction"] = {
        phase_s_ > 0 ? busy_s_ / (phase_s_ * pool_.size()) : 0.0, "ratio"};
    p["campaign.par.executed"] = {
        static_cast<double>(pool1.executed - pool0_.executed) / n, "count"};
    p["campaign.par.steals"] = {
        static_cast<double>(pool1.steals - pool0_.steals) / n, "count"};
    p["campaign.verify.vectors"] = {static_cast<double>(vectors_) / n,
                                    "count"};
    p["campaign.verify.checks"] = {static_cast<double>(checks_) / n,
                                   "count"};
    p["campaign.verify.mismatches"] = {static_cast<double>(mismatches_) / n,
                                       "count"};
    p["campaign.verify.recorder_bytes"] = {
        static_cast<double>(recorder_bytes_), "bytes"};
    tr_.accumulate("hls.interp", model_s[kHls], calls_[kHls]);
    tr_.accumulate("rtl.interp", model_s[kRtl], calls_[kRtl]);
    tr_.accumulate("gate.event", model_s[kGate], calls_[kGate]);
    return out;
  }

 private:
  /// Traced run: fold one parallel_fuzz call's shard clocks into the model
  /// and busy times, and record each shard as a span on its thread.
  void split(const std::vector<std::unique_ptr<ShardClock>>& clocks) {
    Clock::time_point lo = Clock::time_point::max(), hi{};
    for (const auto& c : clocks) {
      if (!c->started) continue;
      lo = std::min(lo, c->first);
      hi = std::max(hi, c->last);
      busy_s_ += std::chrono::duration<double>(c->last - c->first).count();
      for (int k = 0; k < kSlots; ++k) {
        model_s_[k] += c->model_s[k];
        calls_[k] += c->calls[k];
      }
      const unsigned tid =
          tids_.emplace(c->thread, static_cast<unsigned>(tids_.size()))
              .first->second;
      tr_.record("verify.shard", c->first, c->last, tr_.current(), tid + 1);
    }
    if (hi > lo) phase_s_ += std::chrono::duration<double>(hi - lo).count();
  }

  const Options& opt_;
  HostSpeed& host_;
  Tracer& tr_;
  const std::vector<Design> designs_;
  par::Pool pool_;
  const par::Pool::Stats pool0_;
  bool plant_;
  Tally tally_;
  /// Per design: its parallel_fuzz time in each pass, and the vectors a
  /// pass scores.
  std::map<std::string, Samples> design_t_;
  std::map<std::string, std::uint64_t> vectors_per_pass_;
  double coverage_pct_ = 0.0;
  std::uint64_t vectors_ = 0, checks_ = 0, mismatches_ = 0,
                recorder_bytes_ = 0;
  double model_s_[kSlots] = {}, busy_s_ = 0.0, phase_s_ = 0.0;
  std::uint64_t calls_[kSlots] = {};
  std::map<std::thread::id, unsigned> tids_;  ///< trace thread numbers
  unsigned passes_ = 0;
};

}  // namespace

std::unique_ptr<Job> make_campaign_job(const Options& opt, HostSpeed& host,
                                       Tracer& tr) {
  return std::make_unique<CampaignJob>(opt, host, tr);
}

}  // namespace perfbench
