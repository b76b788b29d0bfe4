// bench.hpp — shared types of the repository benchmark.
//
// The benchmark drives the public API of the library (expocu, lint, gate,
// opt, hls, rtl, jit, sysc, verify, par) through three closed batch jobs —
// the design flow, the camera-frame simulation and the verification
// campaign — and reports what a user of each path sees.  Library code is
// never touched: every span and per-layer counter is taken here, around
// the calls into a layer.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gate/netlist.hpp"

namespace perfbench {

class Tracer;

/// One metric as printed: measured value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Plant the self-test fault of the job it names ("flow", "frames",
  /// "campaign"); empty = no fault.
  std::string fault;
  /// Directory for the traced run's Chrome trace and summary files.
  std::string trace_dir;
};

/// Per-operation accounting.  An operation is a unit of the flow, one
/// frame at one simulation level, or one shard of the campaign; a failed
/// check, an exception or a silent fallback to interpretation counts it as
/// failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void pass(std::uint64_t n = 1) { attempted += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    attempted += n;
    failed += n;
    if (errors.size() < 16) errors.push_back(why);
  }
};

/// Everything a job reports: end-to-end metrics (always) and per-layer
/// metrics (filled from the tracer in traced runs).
struct JobResult {
  Metrics end_to_end;
  /// The end-to-end times and rates as timed, before they were stated at
  /// the reference host speed.
  Metrics raw;
  Metrics per_layer;
  Tally tally;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (the mean of the two middle values for an
/// even count).
double median(std::vector<double> v);
/// Mean of a non-empty sample.
double mean(const std::vector<double>& v);

/// Move the calling thread to the next cpu of the process's affinity mask,
/// round robin.  The single-threaded jobs call it at the start of each
/// step so that a run samples every cpu instead of the one the scheduler
/// kept it on: the cpus of a shared host differ in speed by up to 2x from
/// moment to moment.  Main thread only.
void rotate_cpu();
/// Give the calling thread every cpu of the process's mask again (the
/// campaign's pool runs on all of them, its caller included).
void unpin_cpu();

/// Plant the self-test fault in an optimized or lowered netlist: flip the
/// kind of the first invertible logic cell found walking back from the
/// outputs (through registers), so the fault is observable at a port.
/// Returns false when the netlist has no such cell.
bool plant_output_fault(osss::gate::Netlist& nl);

/// Time a fixed reference computation: the geometric mean of the times of
/// its two parts, a cache-bound table sweep and an allocation-bound map
/// build (~9 ms on the host the benchmark was tuned on).  It depends on
/// nothing in the library.
double time_reference_kernel();

/// The host's speed over a run.  The cpus of a shared VM host run faster
/// or slower for seconds to minutes at a time as other tenants come and
/// go, and every time the benchmark takes moves with them.  So the jobs
/// time the reference kernel (a probe) between their timed operations, and
/// each operation's time is also stated at the speed the reference host
/// had when the kernel took kReferenceKernelS, judged from the kWindow
/// probes nearest to the operation.
class HostSpeed {
 public:
  /// The reference kernel's time on the tuning host (see README.md).
  static constexpr double kReferenceKernelS = 0.009;
  /// A probe this recent, on the same cpu, is reused instead of timing
  /// the kernel again.
  static constexpr double kFreshS = 0.05;
  /// Probes whose median sets the speed around one operation: one probe
  /// varies with the cache state the last operation left, the median of a
  /// few seconds of probes follows only the host.
  static constexpr std::size_t kWindow = 9;

  /// Probe the host on the calling thread's cpu; returns the probe's
  /// position in the run.
  std::size_t probe();
  std::size_t samples() const { return probes_.size(); }
  /// How many times faster than the reference host this host ran around
  /// probe `at`.  A time is stated at the reference speed by multiplying
  /// it by this, a rate by dividing it by this.
  double speed_at(std::size_t at) const;

 private:
  Clock::time_point last_{};
  int cpu_ = -1;
  std::vector<double> probes_;
};

/// Durations of one repeated operation, each with the probe taken right
/// after it.
struct Samples {
  std::vector<double> as_timed;
  std::vector<std::size_t> probe;

  void add(double seconds, std::size_t after) {
    as_timed.push_back(seconds);
    probe.push_back(after);
  }
  /// The durations stated at the reference host speed.
  std::vector<double> at_reference(const HostSpeed& host) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < as_timed.size(); ++i)
      out.push_back(as_timed[i] * host.speed_at(probe[i]));
    return out;
  }
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// One of the three jobs.  Each step() makes one fixed batch of its
/// operations (a flow pass over both flows; one frame at every level; a
/// campaign pass over the six designs); finish() computes its metrics.
/// The run interleaves the steps of the three jobs, so each job's samples
/// spread over the whole run.
class Job {
 public:
  virtual ~Job() = default;
  virtual void step() = 0;
  virtual JobResult finish() = 0;
};

/// Steps the frames job needs at least: its OO model runs 10 frames a
/// step and the last closed-loop check applies at frame 110.
constexpr unsigned kMinFrameSteps = 11;

std::unique_ptr<Job> make_flow_job(const Options& opt, HostSpeed& host,
                                   Tracer& tr);
/// Sets up the frames job `setups` times (the engines of the last one are
/// kept); each set-up compiles its four designs cold.
std::unique_ptr<Job> make_frames_job(const Options& opt, unsigned setups,
                                     HostSpeed& host, Tracer& tr);
std::unique_ptr<Job> make_campaign_job(const Options& opt, HostSpeed& host,
                                       Tracer& tr);

}  // namespace perfbench
