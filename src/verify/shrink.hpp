// shrink.hpp — failing-trace minimization and self-contained replay.
//
// When a co-simulation scoreboard trips, the raw counterexample is usually
// hundreds of cycles of random vectors.  shrink() reduces it with delta
// debugging: first over cycles (drop chunks of the sequence while the
// mismatch persists), then over input bits (clear bits of the surviving
// vectors).  The result is packaged as a ReplayRecord — design name, seed,
// port declarations and the minimized vectors — whose text form is emitted
// next to the test binary so a CI failure is reproducible from artifacts
// alone: verify::replay() re-executes a record against a freshly built
// CoSim and must reach the same verdict.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/cosim.hpp"

namespace osss::verify {

struct ShrinkResult {
  Trace trace;          ///< minimized failing stimulus
  RunResult final_run;  ///< the run on the minimized trace (not ok)
  std::size_t original_cycles = 0;
  std::uint64_t predicate_runs = 0;  ///< co-simulations spent shrinking
};

/// Minimize `failing` (a trace for which cs.run_trace(...) reports a
/// mismatch) to a short sequence that still fails.  The co-sim's models are
/// reset and re-run many times; `max_runs` bounds the work.
ShrinkResult shrink(CoSim& cs, const Trace& failing,
                    std::uint64_t max_runs = 4000);

/// Widest input a ReplayRecord may declare.  Every cycle line allocates
/// each value at its declared width, so from_text rejects wider (and zero)
/// widths rather than let one line of text allocate without bound.
inline constexpr unsigned kMaxReplayWidth = 4096;

/// Seed + minimized vectors: everything needed to re-execute a failure.
struct ReplayRecord {
  std::string design;
  std::uint64_t seed = 0;
  std::string note;  ///< e.g. the mismatch description
  Trace trace;

  std::string to_text() const;
  /// Parse the to_text() form; throws std::invalid_argument on malformed
  /// input, including a seed that is not an unsigned 64-bit number and an
  /// input width outside [1, kMaxReplayWidth].
  static ReplayRecord from_text(const std::string& text);
};

/// Re-execute a record against a co-sim of the same design.  Returns the
/// run result (a reproducing record yields !ok).
RunResult replay(CoSim& cs, const ReplayRecord& rec);

/// Write `rec` to `<dir>/<design>_<seed>.replay`; returns the path.
/// Directory must exist; failures throw std::runtime_error.
std::string save_replay(const ReplayRecord& rec, const std::string& dir = ".");

}  // namespace osss::verify
