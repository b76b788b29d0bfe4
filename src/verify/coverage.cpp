#include "verify/coverage.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace osss::verify {

const CoverageItem* CoverageReport::find(const std::string& model,
                                         const std::string& kind) const {
  for (const CoverageItem& it : items)
    if (it.model == model && it.kind == kind) return &it;
  return nullptr;
}

void CoverageReport::merge(const CoverageReport& other) {
  for (const CoverageItem& o : other.items) {
    CoverageItem* mine = nullptr;
    for (CoverageItem& it : items)
      if (it.model == o.model && it.kind == o.kind) {
        mine = &it;
        break;
      }
    if (mine == nullptr) {
      items.push_back(o);
      continue;
    }
    std::vector<std::uint64_t> merged;
    merged.reserve(mine->points.size() + o.points.size());
    std::set_union(mine->points.begin(), mine->points.end(), o.points.begin(),
                   o.points.end(), std::back_inserter(merged));
    mine->points = std::move(merged);
    mine->covered = mine->points.empty()
                        ? std::max(mine->covered, o.covered)
                        : mine->points.size();
    mine->total = std::max(mine->total, o.total);
  }
}

std::string CoverageReport::text() const {
  std::ostringstream os;
  for (const CoverageItem& it : items) {
    os << it.model << " " << it.kind << ": " << it.covered;
    if (it.total != 0) {
      os.precision(1);
      os << "/" << it.total << " (" << std::fixed << it.percent() << "%)";
    }
    os << "\n";
  }
  return os.str();
}

ToggleCoverage::ToggleCoverage(const gate::Netlist& nl) {
  const std::size_t n = nl.cells().size();
  track_.assign(n, 0);
  seen0_.assign(n, 0);
  seen1_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const gate::Cell& c = nl.cells()[i];
    if (c.kind == gate::CellKind::kConst0 ||
        c.kind == gate::CellKind::kConst1)
      continue;
    track_[i] = 1;
    ++tracked_;
  }
}

void ToggleCoverage::sample(const gate::Simulator& sim) {
  // All lanes participate: a 64-lane engine covers 64 stimulus vectors per
  // lane word and sample.  A one-lane engine defines bit 0 only.
  const std::uint64_t mask = sim.lanes() == 1 ? 1ull : ~0ull;
  const unsigned words = sim.lane_words();
  for (std::size_t i = 0; i < track_.size(); ++i) {
    if (!track_[i]) continue;
    for (unsigned w = 0; w < words; ++w) {
      const std::uint64_t v =
          sim.net_lanes(static_cast<gate::NetId>(i), w) & mask;
      if (v != 0) seen1_[i] = 1;
      if (v != mask) seen0_[i] = 1;
    }
  }
}

std::uint64_t ToggleCoverage::covered() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < track_.size(); ++i)
    if (track_[i] && seen0_[i] && seen1_[i]) ++n;
  return n;
}

CoverageItem ToggleCoverage::item(const std::string& model) const {
  CoverageItem it{model, "net-toggle", 0, total(), {}};
  for (std::size_t i = 0; i < track_.size(); ++i)
    if (track_[i] && seen0_[i] && seen1_[i])
      it.points.push_back(static_cast<std::uint64_t>(i));
  it.covered = it.points.size();
  return it;
}

FsmCoverage::FsmCoverage(unsigned state_count, unsigned transition_count)
    : state_count_(state_count), transition_count_(transition_count) {}

void FsmCoverage::sample(unsigned state) {
  states_.insert(state);
  if (have_prev_) transitions_.insert({prev_, state});
  prev_ = state;
  have_prev_ = true;
}

CoverageItem FsmCoverage::state_item(const std::string& model) const {
  CoverageItem it{model, "fsm-state", states_covered(), state_count_, {}};
  it.points.assign(states_.begin(), states_.end());  // std::set: sorted
  return it;
}

CoverageItem FsmCoverage::transition_item(const std::string& model) const {
  CoverageItem it{model, "fsm-transition", transitions_covered(),
                  transition_count_,
                  {}};
  for (const auto& [prev, next] : transitions_)  // sorted pair order
    it.points.push_back((static_cast<std::uint64_t>(prev) << 32) | next);
  return it;
}

}  // namespace osss::verify
