// coverage.hpp — functional coverage for random verification runs.
//
// Two coverage models matching the two controller representations:
//
//   * ToggleCoverage — per-net 0→1 / 1→0 activity on a gate netlist.  A net
//     counts as covered once it has been observed at both values (in any
//     stimulus lane).  Constants are excluded; a netlist whose nets never
//     toggle is not being exercised, so random suites assert a floor.
//   * FsmCoverage — state and transition coverage on an HLS-generated
//     controller, sampled from the behaviour interpreter's current_state().
//     Totals come from the Behavior (state_count) and, when available, the
//     synthesis Report (transitions).
//
// Both feed a CoverageReport, the artefact random suites and the R8 bench
// print and assert on.

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/sim.hpp"

namespace osss::verify {

struct CoverageItem {
  std::string model;  ///< which co-sim model produced it
  std::string kind;   ///< "net-toggle", "fsm-state", "fsm-transition"
  std::uint64_t covered = 0;
  std::uint64_t total = 0;  ///< 0 = unknown universe (report covered only)
  /// Sorted identities of the covered points (net ids, state ids, or
  /// (prev << 32) | next transition encodings).  Lets reports from
  /// independent shards union-merge exactly instead of summing counts.
  std::vector<std::uint64_t> points;

  double percent() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(covered) /
                            static_cast<double>(total);
  }

  bool operator==(const CoverageItem&) const = default;
};

struct CoverageReport {
  std::vector<CoverageItem> items;

  const CoverageItem* find(const std::string& model,
                           const std::string& kind) const;
  /// Union-merge another report (e.g. from a parallel fuzz shard): items
  /// with the same (model, kind) merge their point sets; unseen items are
  /// appended in `other`'s order, so merging shards in shard order is
  /// deterministic for any thread count.
  void merge(const CoverageReport& other);
  /// Multi-line human-readable table.
  std::string text() const;

  bool operator==(const CoverageReport&) const = default;
};

/// Tracks per-net toggle activity of one gate::Simulator.
class ToggleCoverage {
public:
  explicit ToggleCoverage(const gate::Netlist& nl);

  /// Record the current net values (all lanes).  Call once per cycle.
  void sample(const gate::Simulator& sim);

  std::uint64_t covered() const;
  std::uint64_t total() const noexcept { return tracked_; }
  CoverageItem item(const std::string& model) const;

private:
  std::vector<char> track_;  ///< per net: participates in coverage
  std::vector<char> seen0_;
  std::vector<char> seen1_;
  std::uint64_t tracked_ = 0;
};

/// Tracks FSM state / transition coverage of a behaviour controller.
class FsmCoverage {
public:
  /// `state_count` from the Behavior; `transition_count` from the synthesis
  /// Report (0 if unknown).
  explicit FsmCoverage(unsigned state_count, unsigned transition_count = 0);

  /// Record the controller being in `state` this cycle.
  void sample(unsigned state);

  std::uint64_t states_covered() const { return states_.size(); }
  std::uint64_t transitions_covered() const { return transitions_.size(); }
  CoverageItem state_item(const std::string& model) const;
  CoverageItem transition_item(const std::string& model) const;

private:
  unsigned state_count_;
  unsigned transition_count_;
  bool have_prev_ = false;
  unsigned prev_ = 0;
  std::set<unsigned> states_;
  std::set<std::pair<unsigned, unsigned>> transitions_;
};

}  // namespace osss::verify
