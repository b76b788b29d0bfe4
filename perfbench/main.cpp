// main.cpp — the repository benchmark's command line.
//
//   perfbench --workload <flow|frames> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-dir <dir>] [--fault <job>]
//
// Prints the environment it ran in, then one line per metric, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics (and the
// traced run's end-to-end numbers, prefixed "traced.") with --trace 1.
// Exits 1 when any operation failed its check, 2 on a usage or
// environment error.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "jit/jit.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<flow|frames> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-dir <dir>] [--fault <flow|frames|campaign>]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

/// First line of `<compiler> --version` — the JIT's compiler identity.
std::string compiler_identity() {
  const char* cc = std::getenv("OSSS_CC");
  const std::string cmd =
      std::string(cc && *cc ? cc : "c++") + " --version 2>/dev/null";
  std::string line;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p)) line = buf;
    ::pclose(p);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// A failure reason on one line (the result must stay the last line).
std::string one_line(std::string s) {
  for (char& c : s)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  return s;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without "
               "optimization (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--workload" && v) {
      opt.workload = v;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, n) && n > 0 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && parse_u64(v, n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (a == "--trace-dir" && v) {
      opt.trace_dir = v;
    } else if (a == "--fault" && v) {
      opt.fault = v;
    } else {
      return usage(("bad argument " + a).c_str());
    }
    ++i;
  }
  if (opt.workload != "flow" && opt.workload != "frames")
    return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  if (!opt.fault.empty() && opt.fault != "flow" && opt.fault != "frames" &&
      opt.fault != "campaign")
    return usage("unknown --fault job");

  // Pinned environment: the JIT must run (a fallback engine is ~10x
  // slower), and no variable may change seeds, thread counts, the
  // optimizer's self-check, the kernel's race checker or the JIT cache.
  if (osss::jit::jit_disabled_by_env()) {
    std::fprintf(stderr, "perfbench: OSSS_NO_JIT is set; refusing to run\n");
    return 2;
  }
  std::string cleared;
  for (const char* var :
       {"OSSS_FUZZ_SEED", "OSSS_FUZZ_ITERS", "OSSS_THREADS", "OSSS_OPT_CHECK",
        "OSSS_RACE_CHECK", "OSSS_JIT_CACHE_DIR", "OSSS_JIT_CACHE_MAX_BYTES"}) {
    if (std::getenv(var)) {
      cleared += cleared.empty() ? var : std::string(",") + var;
      ::unsetenv(var);
    }
  }
  double load[3] = {0, 0, 0};
  if (::getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1;
  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "loadavg=%.2f,%.2f,%.2f build=release jit_cc=\"%s\" "
              "cleared=\"%s\"\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), load[0], load[1], load[2],
              compiler_identity().c_str(), cleared.c_str());
  std::fflush(stdout);

  // Every run measures every end-to-end metric, so all three jobs run, in
  // amounts that grow with --seconds.  The workload names the job that
  // gets the larger share: with --seconds 45, five flow passes and 60
  // frames (flow), or four flow passes and 80 frames (frames).  Each run
  // also makes eight campaign passes and sets up the frames job three
  // times.  Steps of the three jobs are interleaved in proportion, so each
  // job's samples spread over the whole run, and the host's speed is
  // probed between steps.  With --seconds 45 a run takes 45-55 s on a
  // 4-cpu x86-64 host.
  Tracer tr(opt.trace);
  HostSpeed host;
  JobResult r;
  const double secs = opt.seconds;
  const bool flow = opt.workload == "flow";
  const auto share = [&](double per_second, unsigned at_least) {
    return std::max(at_least,
                    static_cast<unsigned>(std::ceil(per_second * secs)));
  };
  struct Slot {
    const char* name;
    unsigned steps;  // ~4 s a flow pass, 70 ms a frame, 0.6 s a pass
    std::unique_ptr<Job> job;
    unsigned done = 0;
  };
  Slot slots[] = {
      {"flow", flow ? share(1.0 / 9, 1) : share(1.0 / 12, 1), nullptr},
      {"frames",
       flow ? share(4.0 / 3, kMinFrameSteps) : share(16.0 / 9, kMinFrameSteps),
       nullptr},
      {"campaign", share(8.0 / 45, 1), nullptr}};
  const unsigned setups = share(1.0 / 15, 1);  // ~6 s each
  const auto guarded = [&](Slot& s, auto&& body) {
    Tracer::Span span(tr, std::string("job.") + s.name);
    try {
      body();
    } catch (const std::exception& e) {
      r.tally.fail(std::string(s.name) + ": " + e.what());
      s.job.reset();
    }
  };
  guarded(slots[0], [&] { slots[0].job = make_flow_job(opt, host, tr); });
  guarded(slots[1],
          [&] { slots[1].job = make_frames_job(opt, setups, host, tr); });
  guarded(slots[2],
          [&] { slots[2].job = make_campaign_job(opt, host, tr); });
  for (;;) {
    Slot* next = nullptr;  // the job furthest behind its share
    for (Slot& s : slots)
      if (s.job && s.done < s.steps &&
          (!next || s.done * next->steps < next->done * s.steps))
        next = &s;
    if (!next) break;
    guarded(*next, [&] { next->job->step(); });
    ++next->done;
  }
  for (Slot& s : slots) {
    if (!s.job) continue;
    guarded(s, [&] {
      JobResult j = s.job->finish();
      r.end_to_end.merge(j.end_to_end);
      r.raw.merge(j.raw);
      r.per_layer.merge(j.per_layer);
      r.tally.attempted += j.tally.attempted;
      r.tally.failed += j.tally.failed;
      for (std::string& e : j.tally.errors) r.tally.errors.push_back(e);
    });
  }
  r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  // End-to-end times and rates are stated at the reference host speed; the
  // values as timed are printed next to them.
  Metrics as_timed = r.end_to_end;
  for (const auto& [name, m] : r.raw) as_timed[name] = m;

  Metrics printed, printed_as_timed;
  if (opt.trace) {
    printed = printed_as_timed = r.per_layer;
    for (const auto& [name, m] : r.end_to_end) printed["traced." + name] = m;
    for (const auto& [name, m] : as_timed)
      printed_as_timed["traced." + name] = m;
    if (!opt.trace_dir.empty()) {
      const std::string stem =
          opt.workload + "-" + std::to_string(opt.seed);
      if (!tr.write(opt.trace_dir, stem))
        r.tally.fail("could not write the trace to " + opt.trace_dir);
      else
        std::printf("trace: %s/%s.trace.json\n", opt.trace_dir.c_str(),
                    stem.c_str());
    }
  } else {
    printed = r.end_to_end;
    printed_as_timed = as_timed;
  }
  std::printf("host: %zu reference kernel probes\n", host.samples());
  for (const auto& [name, m] : printed)
    std::printf("metric %-40s %-12.6g %-14s as timed %.6g\n", name.c_str(),
                m.value, m.unit.c_str(), printed_as_timed[name].value);
  for (const std::string& e : r.tally.errors)
    std::printf("FAILED: %s\n", one_line(e).c_str());
  const bool correct = r.tally.failed == 0 && r.tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed),
              metrics_json(printed).c_str());
  return correct ? 0 : 1;
}
