#include "trace.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled) : on_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Tracer::Span::Span(Tracer& t, std::string name) : t_(t), t0_(Clock::now()) {
  if (!t_.on_) return;
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(Rec{std::move(name), t_.ns(t0_), 0, t_.current(), 0});
  t_.stack_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  t_.spans_[static_cast<std::size_t>(index_)].end_ns = t_.ns(Clock::now());
  t_.stack_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end, int parent, unsigned tid) {
  if (!on_) return;
  spans_.push_back(Rec{std::move(name), ns(start), ns(end), parent, tid});
}

void Tracer::accumulate(const std::string& layer, double seconds,
                        std::uint64_t calls) {
  if (!on_) return;
  auto& a = acc_[layer];
  a.first += seconds;
  a.second += calls;
}

double Tracer::span_total(const std::string& name,
                          const std::string& within) const {
  double s = 0.0;
  for (const Rec& r : spans_) {
    if (r.name != name) continue;
    int p = r.parent;
    while (p >= 0 && spans_[static_cast<std::size_t>(p)].name != within)
      p = spans_[static_cast<std::size_t>(p)].parent;
    if (p >= 0) s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  return s;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Tracer::write(const std::string& dir, const std::string& stem) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string base = dir + "/" + stem;

  std::ofstream js(base + ".trace.json");
  js << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  r.tid, static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                  r.parent);
    js << (i ? ",\n" : "\n") << "{\"name\":" << quoted(r.name) << "," << buf;
  }
  js << "\n],\"otherData\":{";
  bool first = true;
  for (const auto& [name, a] : acc_) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"seconds\":%.9f,\"calls\":%llu}",
                  a.first, static_cast<unsigned long long>(a.second));
    js << (first ? "\n" : ",\n") << quoted(name) << ":" << buf;
    first = false;
  }
  js << "\n}}\n";

  // Flat summary: per span name its count, total and self time (total
  // minus the part of its interval that child spans cover — children on
  // pool workers overlap), then the accumulators.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Rec& r : spans_)
    if (r.parent >= 0)
      kids[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                            r.end_ns);
  std::vector<double> child(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::sort(kids[i].begin(), kids[i].end());
    std::int64_t covered = 0, reach = INT64_MIN;
    for (const auto& [b, e] : kids[i]) {
      if (e <= reach) continue;
      covered += e - std::max(b, reach);
      reach = e;
    }
    child[i] = static_cast<double>(covered) * 1e-9;
  }
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total += d;
    row.self += d - child[i];
  }
  std::ofstream sum(base + ".summary.txt");
  char line[200];
  std::snprintf(line, sizeof line, "%-36s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  sum << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-36s %8llu %12.6f %12.6f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total, row.self);
    sum << line;
  }
  std::snprintf(line, sizeof line, "\n%-36s %8s %12s\n", "accumulator",
                "calls", "total_s");
  sum << line;
  for (const auto& [name, a] : acc_) {
    std::snprintf(line, sizeof line, "%-36s %8llu %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(a.second), a.first);
    sum << line;
  }
  return static_cast<bool>(js) && static_cast<bool>(sum);
}

}  // namespace perfbench
