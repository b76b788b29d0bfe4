// frames.cpp — the camera-frame job: a seeded synthetic-camera stream
// through histogram -> threshold (the OSSS threshold) on the native RTL
// engine and the native gate engine, 256 lanes each, plus the closed-loop
// OO ExpoCuSystem on the simulation kernel.  Each lane has its own
// exposure, gain and ambient phase, so pixel activity is what a camera
// produces rather than a pattern in which every bit toggles each cycle.
//
// Set-up (synthesis, lowering, tape compile and a cold JIT compile of the
// four designs) is timed apart as setup_s; the JIT runs with no disk
// cache, so every set-up compiles all four designs.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <random>

#include "bench.hpp"
#include "expocu/ae_law.hpp"
#include "expocu/camera_model.hpp"
#include "expocu/expocu_sim.hpp"
#include "expocu/hw.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "hls/synth.hpp"
#include "jit/jit.hpp"
#include "rtl/sim.hpp"
#include "trace.hpp"
#include "verify/stimgen.hpp"

namespace perfbench {
namespace {

using namespace osss;
using namespace osss::expocu;

constexpr unsigned kLanes = 256;
constexpr unsigned kCyclesPerFrame = kPixelsPerFrame + 8;
constexpr double kLaneCyclesPerFrame =
    static_cast<double>(kLanes) * kCyclesPerFrame;
/// OO frames per timed chunk, and the frame counts at which the
/// closed-loop checks of tests/integration/closed_loop_test.cpp apply.
constexpr unsigned kOoChunk = 10;
constexpr unsigned kOoI2cCheck = 10, kOoConvergeCheck = 20,
                   kOoSweepCheck = kMinFrameSteps * kOoChunk;

/// The four designs on their engines, plus the OO system: what one set-up
/// builds.
struct Engines {
  std::unique_ptr<rtl::Simulator> rtl_hist, rtl_thresh;
  std::unique_ptr<gate::Simulator> gate_hist, gate_thresh;
  std::unique_ptr<sysc::Context> ctx;
  std::unique_ptr<ExpoCuSystem> sys;
  std::size_t gate_cells = 0;

  /// Destroy in dependency order (the OO system before its context).
  void release() {
    sys.reset();
    ctx.reset();
    gate_thresh.reset();
    gate_hist.reset();
    rtl_thresh.reset();
    rtl_hist.reset();
  }
};

struct SetupStats {
  double seconds = 0.0;
  std::uint64_t compiles = 0, disk_hits = 0, fallbacks = 0;
};

SetupStats set_up(Engines& e, Tracer& tr) {
  SetupStats st;
  Tracer::Span setup(tr, "frames.setup");
  rtl::Module hist_m = build_histogram_rtl();
  rtl::Module thresh_m = [&] {
    Tracer::Span s(tr, "hls.synth");
    return hls::synthesize(build_threshold_osss());
  }();
  const auto lower = [&](const rtl::Module& m) {
    Tracer::Span s(tr, "gate.lower");
    return gate::lower_to_gates(m);
  };
  gate::Netlist hist_nl = lower(hist_m);
  gate::Netlist thresh_nl = lower(thresh_m);
  e.gate_cells = hist_nl.cells().size() + thresh_nl.cells().size();
  const jit::CacheStats before = jit::cache_stats();
  {
    Tracer::Span s(tr, "rtl.ctor");
    e.rtl_hist = std::make_unique<rtl::Simulator>(
        std::move(hist_m), rtl::SimMode::kNative, kLanes);
    e.rtl_thresh = std::make_unique<rtl::Simulator>(
        std::move(thresh_m), rtl::SimMode::kNative, kLanes);
  }
  {
    Tracer::Span s(tr, "gate.ctor");
    e.gate_hist = std::make_unique<gate::Simulator>(
        std::move(hist_nl), gate::SimMode::kNative, kLanes);
    e.gate_thresh = std::make_unique<gate::Simulator>(
        std::move(thresh_nl), gate::SimMode::kNative, kLanes);
  }
  {
    Tracer::Span s(tr, "sysc.ctor");
    e.ctx = std::make_unique<sysc::Context>();
    e.sys = std::make_unique<ExpoCuSystem>(*e.ctx);
  }
  const jit::CacheStats after = jit::cache_stats();
  st.seconds = setup.elapsed();
  st.compiles = after.compiles - before.compiles;
  st.disk_hits = after.disk_hits - before.disk_hits;
  st.fallbacks = !e.rtl_hist->native().native() +
                 !e.rtl_thresh->native().native() +
                 !e.gate_hist->native().native() +
                 !e.gate_thresh->native().native();
  return st;
}

/// Camera settings of one lane, drawn from the seed.
struct LaneCamera {
  CameraRegisters regs;
  std::uint64_t phase = 0;  ///< ambient phase: frame offset of this lane
};

/// One frame of stimulus for every lane, generated just before it is
/// simulated: pixel[c * kLanes + l] is lane l's pixel in cycle c; stats[l]
/// is what threshold_calc must report for it one frame later.  Pixels are
/// kept as bytes (512 KB a frame) so that the frame loop's working set
/// stays in a core's L2 cache: the shared cache below it is where other
/// tenants of the host slow a run down.
struct FrameStimulus {
  std::vector<std::uint8_t> pixel =
      std::vector<std::uint8_t>(std::size_t{kPixelsPerFrame} * kLanes);
  std::vector<FrameStats> stats = std::vector<FrameStats>(kLanes);

  void generate(std::uint64_t frame, const std::vector<LaneCamera>& cams) {
    for (unsigned l = 0; l < kLanes; ++l) {
      std::array<std::uint16_t, kHistBins> hist{};
      for (unsigned i = 0; i < kPixelsPerFrame; ++i) {
        const std::uint8_t v = CameraModel::sensor_value(
            i % kFrameWidth, i / kFrameWidth, frame + cams[l].phase,
            cams[l].regs);
        pixel[std::size_t{i} * kLanes + l] = v;
        ++hist[v >> (kPixelBits - kHistBinBits)];
      }
      stats[l] = stats_from_histogram(hist);
    }
  }

  /// Cycle c's pixels, one value per lane, as the engines take them.
  void row(unsigned c, std::vector<std::uint64_t>& out) const {
    const std::uint8_t* p = pixel.data() + std::size_t{c} * kLanes;
    for (unsigned l = 0; l < kLanes; ++l) out[l] = p[l];
  }
};

/// Compare the per-lane threshold outputs with the reference; returns an
/// empty string when every lane matches.
std::string compare(const char* level, std::uint64_t frame,
                    const std::vector<FrameStats>& want,
                    const std::vector<std::uint64_t>& mean,
                    const std::vector<std::uint64_t>& dark,
                    const std::vector<std::uint64_t>& bright) {
  for (unsigned l = 0; l < kLanes; ++l) {
    if (mean[l] != want[l].mean || dark[l] != want[l].dark ||
        bright[l] != want[l].bright)
      return std::string(level) + " frame " + std::to_string(frame) +
             " lane " + std::to_string(l) + ": mean/dark/bright " +
             std::to_string(mean[l]) + "/" + std::to_string(dark[l]) + "/" +
             std::to_string(bright[l]) + ", want " +
             std::to_string(want[l].mean) + "/" +
             std::to_string(want[l].dark) + "/" +
             std::to_string(want[l].bright);
  }
  return {};
}

/// Per-level busy time: step() calls and everything else in the frame loop
/// (lane I/O between the two designs and the pixel input).
struct LevelTime {
  double step_s = 0.0, total_s = 0.0;
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> row = std::vector<std::uint64_t>(kLanes);
};

double rtl_frame(Engines& e, const FrameStimulus& stim, bool timed_steps,
                 LevelTime& lt) {
  rtl::Simulator& h = *e.rtl_hist;
  rtl::Simulator& t = *e.rtl_thresh;
  const rtl::InputHandle pixel = h.input_handle("pixel");
  const rtl::InputHandle pixel_valid = h.input_handle("pixel_valid");
  const rtl::InputHandle vsync = h.input_handle("vsync");
  const rtl::OutputHandle bin_valid = h.output_handle("bin_valid");
  const rtl::OutputHandle bin_index = h.output_handle("bin_index");
  const rtl::OutputHandle bin_count = h.output_handle("bin_count");
  const rtl::OutputHandle frame_done = h.output_handle("frame_done");
  const rtl::InputHandle t_bin_valid = t.input_handle("bin_valid");
  const rtl::InputHandle t_bin_index = t.input_handle("bin_index");
  const rtl::InputHandle t_bin_count = t.input_handle("bin_count");
  const rtl::InputHandle t_frame_done = t.input_handle("frame_done");
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
    const bool valid = i < kPixelsPerFrame;
    if (valid) {
      stim.row(i, lt.row);
      h.set_input_values(pixel, lt.row);
    }
    h.set_input(pixel_valid, std::uint64_t{valid ? 1u : 0u});
    h.set_input(vsync, std::uint64_t{(valid && i == 0) ? 1u : 0u});
    if (timed_steps) {
      const auto s0 = Clock::now();
      h.step();
      lt.step_s += seconds_since(s0);
    } else {
      h.step();
    }
    t.set_input_values(t_bin_valid, h.output_values(bin_valid));
    t.set_input_values(t_bin_index, h.output_values(bin_index));
    t.set_input_values(t_bin_count, h.output_values(bin_count));
    t.set_input_values(t_frame_done, h.output_values(frame_done));
    if (timed_steps) {
      const auto s0 = Clock::now();
      t.step();
      lt.step_s += seconds_since(s0);
    } else {
      t.step();
    }
  }
  const double s = seconds_since(t0);
  lt.total_s += s;
  lt.steps += 2 * kCyclesPerFrame;
  return s;
}

double gate_frame(Engines& e, const FrameStimulus& stim, bool timed_steps,
                  LevelTime& lt) {
  gate::Simulator& h = *e.gate_hist;
  gate::Simulator& t = *e.gate_thresh;
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
    const bool valid = i < kPixelsPerFrame;
    if (valid) {
      stim.row(i, lt.row);
      h.set_input_values("pixel", lt.row);
    }
    h.set_input("pixel_valid", std::uint64_t{valid ? 1u : 0u});
    h.set_input("vsync", std::uint64_t{(valid && i == 0) ? 1u : 0u});
    if (timed_steps) {
      const auto s0 = Clock::now();
      h.step();
      lt.step_s += seconds_since(s0);
    } else {
      h.step();
    }
    t.set_input_lanes("bin_valid", h.output_words("bin_valid"));
    t.set_input_lanes("bin_index", h.output_words("bin_index"));
    t.set_input_lanes("bin_count", h.output_words("bin_count"));
    t.set_input_lanes("frame_done", h.output_words("frame_done"));
    if (timed_steps) {
      const auto s0 = Clock::now();
      t.step();
      lt.step_s += seconds_since(s0);
    } else {
      t.step();
    }
  }
  const double s = seconds_since(t0);
  lt.total_s += s;
  lt.steps += 2 * kCyclesPerFrame;
  return s;
}

/// The closed-loop checks of tests/integration/closed_loop_test.cpp, each
/// applied when the OO run reaches the frame count its test simulates.
std::string check_oo(const ExpoCuSystem& sys, unsigned frames,
                     std::uint16_t initial_exposure) {
  const auto& log = sys.expocu.frame_log();
  if (frames == kOoI2cCheck) {
    const bool current = sys.regs.exposure == sys.expocu.exposure() &&
                         sys.regs.gain == sys.expocu.gain();
    if (!current && !sys.expocu.master().busy())
      return "camera registers lag the controller after 10 frames";
  }
  if (frames == kOoConvergeCheck) {
    if (sys.expocu.frames_processed() < 15 || log.size() < 10)
      return "fewer than 15 frames processed after 20";
    const double early =
        std::abs(static_cast<double>(log[1].mean) - kTargetMean);
    double late = 0.0;
    for (std::size_t i = log.size() - 4; i < log.size(); ++i)
      late += std::abs(static_cast<double>(log[i].mean) - kTargetMean) / 4.0;
    if (!(late < 40.0 && late < early + 5.0))
      return "auto-exposure did not converge toward the target mean";
    if (sys.slave.transaction_count() <= 5 ||
        sys.regs.exposure == initial_exposure)
      return "I2C carried no exposure updates";
  }
  if (frames == kOoSweepCheck) {
    if (log.size() <= 90) return "frame log too short after 110 frames";
    unsigned in_band = 0, considered = 0;
    for (std::size_t i = 15; i < log.size(); ++i) {
      ++considered;
      if (std::abs(static_cast<double>(log[i].mean) - kTargetMean) < 48)
        ++in_band;
    }
    if (static_cast<double>(in_band) / considered <= 0.8)
      return "mean left the controlled band during the ambient sweep";
  }
  for (const FrameStats& s : log)
    if (s.dark > kPixelsPerFrame || s.bright > kPixelsPerFrame ||
        static_cast<unsigned>(s.dark) + s.bright > kPixelsPerFrame)
      return "inconsistent frame statistics in the OO log";
  return {};
}

class FramesJob final : public Job {
 public:
  FramesJob(const Options& opt, unsigned setups, HostSpeed& host, Tracer& tr)
      : host_(host), tr_(tr), setups_(setups), cams_(kLanes) {
    for (unsigned i = 0; i < setups; ++i) {
      e_.release();  // drop the previous engines: the next JIT is cold
      host_.probe();
      last_ = set_up(e_, tr);
      setup_s_.add(last_.seconds, host_.probe());
      if (last_.compiles != 4 || last_.disk_hits != 0)
        tally_.fail("frames set-up " + std::to_string(i) + ": " +
                    std::to_string(last_.compiles) + " JIT compiles and " +
                    std::to_string(last_.disk_hits) +
                    " disk hits, want 4 and 0 on a cold cache");
    }
    std::mt19937_64 rng(verify::StimGen::derive(opt.seed, "frames/cameras"));
    for (LaneCamera& c : cams_) {
      c.regs.exposure = static_cast<std::uint16_t>(0x0200 + rng() % 0x1000);
      c.regs.gain = static_cast<std::uint8_t>(48 + rng() % 64);
      c.phase = rng() % 1000;
    }
    // The fault self-test corrupts one lane of the reference.
    if (opt.fault == "frames") bad_lane_ = static_cast<unsigned>(rng() % kLanes);
    rtl_native_ =
        e_.rtl_hist->native().native() && e_.rtl_thresh->native().native();
    gate_native_ =
        e_.gate_hist->native().native() && e_.gate_thresh->native().native();
    initial_exposure_ = e_.sys->regs.exposure;
  }

  void step() override {
    // A frame takes ~70 ms, so the job moves to the next cpu every fourth
    // frame only; the probe that ends a frame then also starts the next.
    if (frame_ % 4 == 0) rotate_cpu();
    host_.probe();
    stim_.generate(frame_, cams_);
    if (bad_lane_ < kLanes) want_[bad_lane_].mean ^= 1;
    double rtl_s = 0.0, gate_s = 0.0, oo_s = 0.0;
    {
      Tracer::Span s(tr_, "frames.rtl");
      rtl_s = rtl_frame(e_, stim_, tr_.enabled(), rtl_t_);
      rtl::Simulator& t = *e_.rtl_thresh;
      const std::string bad = compare(
          "rtl", frame_, want_, t.output_values(t.output_handle("mean")),
          t.output_values(t.output_handle("dark_o")),
          t.output_values(t.output_handle("bright_o")));
      if (!bad.empty()) tally_.fail(bad);
      else if (!rtl_native_) tally_.fail("rtl: native engine fell back");
      else tally_.pass();
    }
    {
      Tracer::Span s(tr_, "frames.gate");
      gate_s = gate_frame(e_, stim_, tr_.enabled(), gate_t_);
      const gate::Simulator& t = *e_.gate_thresh;
      const std::string bad =
          compare("gate", frame_, want_, t.output_values("mean"),
                  t.output_values("dark_o"), t.output_values("bright_o"));
      if (!bad.empty()) tally_.fail(bad);
      else if (!gate_native_) tally_.fail("gate: native engine fell back");
      else tally_.pass();
    }
    want_ = stim_.stats;
    ++frame_;
    {
      // The OO model advances one chunk per frame of the engines.
      Tracer::Span s(tr_, "frames.oo");
      const auto c0 = Clock::now();
      e_.sys->run_frames(*e_.ctx, kOoChunk);
      oo_s = seconds_since(c0);
      oo_s_ += oo_s;
      oo_frames_ += kOoChunk;
      const std::string bad =
          check_oo(*e_.sys, oo_frames_, initial_exposure_);
      if (!bad.empty()) tally_.fail("oo: " + bad, kOoChunk);
      else tally_.pass(kOoChunk);
    }
    const std::size_t after = host_.probe();
    rtl_s_.add(rtl_s, after);
    gate_s_.add(gate_s, after);
    oo_chunk_s_.add(oo_s, after);
  }

  JobResult finish() override {
    JobResult out;
    if (oo_frames_ < kOoSweepCheck)
      tally_.fail("oo: fewer frames than the closed-loop checks need");
    out.tally = tally_;
    if (frame_ == 0) return out;
    // Rates are the work of a frame (an OO chunk) over its mean time;
    // set-up time is the median set-up.
    const auto put = [&](Metrics& to, double setup_s,
                         const std::vector<double>& rtl_s,
                         const std::vector<double>& gate_s,
                         const std::vector<double>& oo_s) {
      to["setup_s"] = {setup_s, "s"};
      to["oo_cycles_per_s"] = {kOoChunk * kCyclesPerFrame / mean(oo_s),
                               "cycles/s"};
      to["rtl_lane_cycles_per_s"] = {kLaneCyclesPerFrame / mean(rtl_s),
                                     "lane-cycles/s"};
      to["gate_lane_cycles_per_s"] = {kLaneCyclesPerFrame / mean(gate_s),
                                      "lane-cycles/s"};
    };
    put(out.end_to_end, median(setup_s_.at_reference(host_)),
        rtl_s_.at_reference(host_), gate_s_.at_reference(host_),
        oo_chunk_s_.at_reference(host_));
    put(out.raw, median(setup_s_.as_timed), rtl_s_.as_timed,
        gate_s_.as_timed, oo_chunk_s_.as_timed);
    if (!tr_.enabled()) return out;

    // Set-up figures are per set-up; engine figures are totals over the
    // run (rate = lane_cycles / (step_s + io_s)).
    const double n = setups_;
    const auto span = [&](const char* name) {
      return tr_.span_total(name, "job.frames") / n;
    };
    const rtl::Simulator::Stats rh = e_.rtl_hist->stats();
    const rtl::Simulator::Stats rt = e_.rtl_thresh->stats();
    const double lane_cycles = static_cast<double>(frame_) * kLaneCyclesPerFrame;
    auto& p = out.per_layer;
    p["frames.hls.synth_s"] = {span("hls.synth"), "s"};
    p["frames.gate.lower_s"] = {span("gate.lower"), "s"};
    p["frames.rtl.ctor_s"] = {span("rtl.ctor"), "s"};
    p["frames.gate.ctor_s"] = {span("gate.ctor"), "s"};
    p["frames.jit.compiles"] = {static_cast<double>(last_.compiles), "count"};
    p["frames.jit.disk_hits"] = {static_cast<double>(last_.disk_hits),
                                 "count"};
    p["frames.jit.fallbacks"] = {static_cast<double>(last_.fallbacks),
                                 "count"};
    p["frames.rtl.step_s"] = {rtl_t_.step_s, "s"};
    p["frames.rtl.io_s"] = {rtl_t_.total_s - rtl_t_.step_s, "s"};
    p["frames.rtl.lane_cycles"] = {lane_cycles, "count"};
    p["frames.rtl.tape_len"] = {static_cast<double>(rh.tape_len + rt.tape_len),
                                "count"};
    p["frames.rtl.arena_words"] = {
        static_cast<double>(rh.arena_words + rt.arena_words), "count"};
    p["frames.gate.step_s"] = {gate_t_.step_s, "s"};
    p["frames.gate.io_s"] = {gate_t_.total_s - gate_t_.step_s, "s"};
    p["frames.gate.lane_cycles"] = {lane_cycles, "count"};
    p["frames.gate.cells"] = {static_cast<double>(e_.gate_cells), "count"};
    p["frames.sysc.run_s"] = {oo_s_, "s"};
    p["frames.sysc.cycles"] = {
        static_cast<double>(oo_frames_) * kCyclesPerFrame, "count"};
    tr_.accumulate("rtl.step", rtl_t_.step_s, rtl_t_.steps);
    tr_.accumulate("gate.step", gate_t_.step_s, gate_t_.steps);
    return out;
  }

 private:
  HostSpeed& host_;
  Tracer& tr_;
  const unsigned setups_;
  Tally tally_;
  Engines e_;
  SetupStats last_;
  Samples setup_s_;
  std::vector<LaneCamera> cams_;
  unsigned bad_lane_ = kLanes;  ///< kLanes: no planted fault
  bool rtl_native_ = false, gate_native_ = false;
  std::uint16_t initial_exposure_ = 0;
  FrameStimulus stim_;
  /// Threshold outputs during frame f report frame f-1; before the first
  /// frame the hardware streams an all-zero bootstrap histogram.
  std::vector<FrameStats> want_ =
      std::vector<FrameStats>(kLanes, stats_from_histogram({}));
  std::uint64_t frame_ = 0;
  Samples rtl_s_, gate_s_, oo_chunk_s_;  ///< per frame / per OO chunk
  LevelTime rtl_t_, gate_t_;
  double oo_s_ = 0.0;
  unsigned oo_frames_ = 0;
};

}  // namespace

std::unique_ptr<Job> make_frames_job(const Options& opt, unsigned setups,
                                     HostSpeed& host, Tracer& tr) {
  return std::make_unique<FramesJob>(opt, setups, host, tr);
}

}  // namespace perfbench
