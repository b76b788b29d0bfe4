// trace.hpp — spans and per-layer accumulators of the traced run.
//
// Spans (name, start, end, parent, thread) are recorded around each call
// into a library layer and kept in memory; write() emits them at exit as
// Chrome trace-event JSON (open it in the browser's trace viewer) plus a
// flat per-layer summary with total and self time.  Calls made every
// simulated cycle are not spans: their durations are added into named
// accumulators instead.  With tracing off a Span still times itself (the
// end-to-end metrics use that) but records nothing.
//
// Not thread-safe: spans open and close on the benchmark's main thread.
// Work that ran on pool workers is added afterwards with record().

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return on_; }

  class Span {
   public:
    Span(Tracer& t, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Seconds since the span opened.
    double elapsed() const { return seconds_since(t0_); }

   private:
    Tracer& t_;
    int index_ = -1;
    Clock::time_point t0_;
  };

  /// Index of the innermost open span (-1 at top level).
  int current() const noexcept {
    return stack_.empty() ? -1 : stack_.back();
  }

  /// Add a finished span that ran elsewhere (a shard on a pool worker).
  void record(std::string name, Clock::time_point start,
              Clock::time_point end, int parent, unsigned tid);

  /// Add `seconds` and `calls` to a per-layer accumulator.
  void accumulate(const std::string& layer, double seconds,
                  std::uint64_t calls = 1);

  /// Summed duration of every span with this name that ran inside a span
  /// named `within`.
  double span_total(const std::string& name, const std::string& within) const;

  /// Write `<dir>/<stem>.trace.json` and `<dir>/<stem>.summary.txt`.
  /// Returns false when a file could not be written.
  bool write(const std::string& dir, const std::string& stem) const;

 private:
  struct Rec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    unsigned tid = 0;
  };

  bool on_;
  Clock::time_point origin_;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
  std::map<std::string, std::pair<double, std::uint64_t>> acc_;

  std::int64_t ns(Clock::time_point t) const;
};

}  // namespace perfbench
