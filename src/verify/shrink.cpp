#include "verify/shrink.hpp"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "par/env.hpp"

namespace osss::verify {

namespace {

/// Run the candidate; on failure adopt its (failure-truncated) trace.
bool adopt_if_fails(CoSim& cs, const Trace& cand, Trace& cur,
                    std::uint64_t& runs) {
  ++runs;
  const RunResult r = cs.run_trace(cand);
  if (r.ok) return false;
  cur = r.failing_trace;
  return true;
}

/// One numeric field of a record line, parsed strictly: garbage, a sign,
/// overflow and values outside [lo, hi] throw instead of wrapping, reading
/// as zero or being clamped.
std::uint64_t parse_field(const std::string& tok, std::uint64_t lo,
                          std::uint64_t hi, const char* what,
                          const std::string& line) {
  const par::EnvValue v = par::parse_u64(tok, lo, hi);
  if (v.status != par::EnvParseStatus::kOk || v.clamped)
    throw std::invalid_argument(std::string("ReplayRecord: bad ") + what +
                                ": " + line);
  return v.value;
}

}  // namespace

ShrinkResult shrink(CoSim& cs, const Trace& failing, std::uint64_t max_runs) {
  ShrinkResult out;
  out.original_cycles = failing.length();
  std::uint64_t runs = 0;

  Trace cur = failing;
  {
    ++runs;
    const RunResult first = cs.run_trace(cur);
    if (first.ok)
      throw std::invalid_argument("shrink: trace does not fail");
    cur = first.failing_trace;  // truncated at the mismatch cycle
  }

  // Phase 1 — delta debugging over cycles: try dropping chunks of the
  // sequence, halving chunk size until single cycles are tried.
  std::size_t granularity = 2;
  while (cur.length() > 1 && runs < max_runs) {
    const std::size_t chunk = (cur.length() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < cur.length() && runs < max_runs;
         start += chunk) {
      Trace cand;
      cand.inputs = cur.inputs;
      for (std::size_t c = 0; c < cur.length(); ++c)
        if (c < start || c >= start + chunk) cand.cycles.push_back(cur.cycles[c]);
      if (cand.cycles.empty()) continue;
      if (adopt_if_fails(cs, cand, cur, runs)) {
        reduced = true;
        granularity = granularity > 2 ? granularity - 1 : 2;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;  // minimal w.r.t. single-cycle removal
      granularity =
          granularity * 2 < cur.length() ? granularity * 2 : cur.length();
    }
  }

  // Phase 2 — bit minimization: zero whole vectors, then individual bits.
  for (std::size_t c = 0; c < cur.length() && runs < max_runs; ++c) {
    for (std::size_t i = 0; i < cur.inputs.size() && runs < max_runs; ++i) {
      if (cur.cycles[c][i].is_zero()) continue;
      {
        Trace cand = cur;
        cand.cycles[c][i] = Bits(cur.inputs[i].width);
        if (adopt_if_fails(cs, cand, cur, runs)) continue;
      }
      for (unsigned bi = 0;
           bi < cur.inputs[i].width && runs < max_runs; ++bi) {
        if (c >= cur.length()) break;  // adoption may have truncated
        if (!cur.cycles[c][i].bit(bi)) continue;
        Trace cand = cur;
        cand.cycles[c][i].set_bit(bi, false);
        adopt_if_fails(cs, cand, cur, runs);
      }
    }
  }

  out.trace = cur;
  out.final_run = cs.run_trace(cur);
  out.predicate_runs = runs + 1;
  return out;
}

// --- ReplayRecord ----------------------------------------------------------

std::string ReplayRecord::to_text() const {
  std::ostringstream os;
  os << "osss-replay v1\n";
  os << "design " << design << "\n";
  os << "seed " << seed << "\n";
  if (!note.empty()) os << "note " << note << "\n";
  for (const IoDecl& in : trace.inputs)
    os << "input " << in.name << " " << in.width << "\n";
  for (const std::vector<Bits>& cyc : trace.cycles) {
    os << "cycle";
    for (const Bits& v : cyc) os << " " << v.to_hex_string();
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

ReplayRecord ReplayRecord::from_text(const std::string& text) {
  ReplayRecord rec;
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "osss-replay v1")
    throw std::invalid_argument("ReplayRecord: missing header");
  bool ended = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "design") {
      std::getline(ls, rec.design);
      if (!rec.design.empty() && rec.design.front() == ' ')
        rec.design.erase(rec.design.begin());
    } else if (key == "seed") {
      std::string tok;
      ls >> tok;
      rec.seed = parse_field(tok, 0, std::numeric_limits<std::uint64_t>::max(),
                             "seed", line);
    } else if (key == "note") {
      std::getline(ls, rec.note);
      if (!rec.note.empty() && rec.note.front() == ' ')
        rec.note.erase(rec.note.begin());
    } else if (key == "input") {
      IoDecl d;
      std::string width;
      ls >> d.name >> width;
      if (d.name.empty())
        throw std::invalid_argument("ReplayRecord: bad input decl: " + line);
      d.width = static_cast<unsigned>(
          parse_field(width, 1, kMaxReplayWidth, "input decl", line));
      rec.trace.inputs.push_back(d);
    } else if (key == "cycle") {
      std::vector<Bits> values;
      std::string tok;
      std::size_t i = 0;
      while (ls >> tok) {
        if (i >= rec.trace.inputs.size())
          throw std::invalid_argument("ReplayRecord: too many values: " +
                                      line);
        values.push_back(Bits::parse(rec.trace.inputs[i].width, tok));
        ++i;
      }
      if (i != rec.trace.inputs.size())
        throw std::invalid_argument("ReplayRecord: too few values: " + line);
      rec.trace.cycles.push_back(std::move(values));
    } else if (key == "end") {
      ended = true;
      break;
    } else {
      throw std::invalid_argument("ReplayRecord: unknown key: " + key);
    }
  }
  if (!ended) throw std::invalid_argument("ReplayRecord: missing end marker");
  return rec;
}

RunResult replay(CoSim& cs, const ReplayRecord& rec) {
  return cs.run_trace(rec.trace);
}

std::string save_replay(const ReplayRecord& rec, const std::string& dir) {
  std::string stem = rec.design.empty() ? "design" : rec.design;
  for (char& ch : stem)
    if (!(std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_' ||
          ch == '-'))
      ch = '_';
  const std::string path =
      dir + "/" + stem + "_" + std::to_string(rec.seed) + ".replay";
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_replay: cannot write " + path);
  os << rec.to_text();
  if (!os.flush())
    throw std::runtime_error("save_replay: write failed: " + path);
  return path;
}

}  // namespace osss::verify
