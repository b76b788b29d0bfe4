#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

/// The process's cpus, captured before the first rotation.
const cpu_set_t& process_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}

}  // namespace

void rotate_cpu() {
  static int last = -1;
  const cpu_set_t& all = process_cpus();
  for (int i = 1; i <= CPU_SETSIZE; ++i) {
    const int cpu = (last + i) % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
    last = cpu;
    return;
  }
}

void unpin_cpu() { sched_setaffinity(0, sizeof(cpu_set_t), &process_cpus()); }

namespace {

std::optional<osss::gate::CellKind> inverted_kind(osss::gate::CellKind k) {
  using osss::gate::CellKind;
  switch (k) {
    case CellKind::kAnd2: return CellKind::kNand2;
    case CellKind::kNand2: return CellKind::kAnd2;
    case CellKind::kOr2: return CellKind::kNor2;
    case CellKind::kNor2: return CellKind::kOr2;
    case CellKind::kXor2: return CellKind::kXnor2;
    case CellKind::kXnor2: return CellKind::kXor2;
    case CellKind::kInv: return CellKind::kBuf;
    case CellKind::kBuf: return CellKind::kInv;
    default: return std::nullopt;
  }
}

}  // namespace

bool plant_output_fault(osss::gate::Netlist& nl) {
  using osss::gate::CellKind;
  using osss::gate::NetId;
  std::deque<NetId> todo;
  std::vector<bool> seen(nl.cells().size(), false);
  for (const auto& bus : nl.outputs())
    for (const NetId n : bus.nets) todo.push_back(n);
  while (!todo.empty()) {
    const NetId n = todo.front();
    todo.pop_front();
    if (seen[n]) continue;
    seen[n] = true;
    const auto& cell = nl.cells()[n];
    if (const auto k = inverted_kind(cell.kind)) {
      nl.mutate_cell(n, *k);
      return true;
    }
    if (cell.kind == CellKind::kDff)
      for (const NetId in : cell.ins) todo.push_back(in);
  }
  return false;
}

double time_reference_kernel() {
  // A sweep of data-dependent reads and writes over 1 Mi words (4 MB,
  // more than a core's L2 cache, so it also depends on the shared cache),
  // and the build of a 20000-entry std::map (allocation and branchy
  // pointer chasing, like the flow's and the OO kernel's code).
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 20);
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return t;
  }();
  static volatile std::uint64_t sink = 0;
  const std::size_t mask = table.size() - 1;
  std::uint64_t acc = sink;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < table.size(); ++i) {
    acc += table[(i * 7 + acc) & mask];
    table[i] ^= static_cast<std::uint32_t>(acc);
  }
  const double sweep_s = seconds_since(t0);
  t0 = Clock::now();
  {
    std::map<std::uint32_t, std::uint32_t> m;
    std::uint32_t x = 12345;
    for (std::uint32_t i = 0; i < 20000; ++i) {
      x = x * 1664525u + 1013904223u;
      m[x] = i;
    }
    acc += m.size();
  }
  const double map_s = seconds_since(t0);
  sink = acc;
  return std::sqrt(sweep_s * map_s);
}

std::size_t HostSpeed::probe() {
  const int cpu = sched_getcpu();
  if (probes_.empty() || cpu != cpu_ || seconds_since(last_) >= kFreshS) {
    probes_.push_back(time_reference_kernel());
    last_ = Clock::now();
    cpu_ = cpu;
  }
  return probes_.size() - 1;
}

double HostSpeed::speed_at(std::size_t at) const {
  if (probes_.empty()) return 1.0;
  const std::size_t n = probes_.size(), w = std::min(kWindow, n);
  const std::size_t lo = std::min(at > w / 2 ? at - w / 2 : 0, n - w);
  return kReferenceKernelS /
         median(std::vector<double>(probes_.begin() + lo,
                                    probes_.begin() + lo + w));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

}  // namespace perfbench
