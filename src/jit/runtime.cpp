// runtime.cpp — the binder and the state resets of jit::Runtime.

#include "jit/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace osss::jit {

namespace {

/// The one stderr line of a process whose generated code failed to load:
/// the interpreted dispatch it falls back to is about ten times slower.
void warn_fallback(const char* prefix, const std::string& log) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::string first;
  for (std::size_t at = 0; at < log.size() && first.empty();) {
    const std::size_t end = std::min(log.find('\n', at), log.size());
    first = log.substr(at, end - at);
    at = end + 1;
  }
  std::fprintf(stderr,
               "osss: native code for %s unavailable, using interpreted "
               "dispatch (~10x slower; said once per process): %s\n",
               prefix, first.c_str());
}

/// The ABI probe, shared by the post-compile check and the disk cache's
/// load-time validation: a stale or truncated published artifact must fail
/// here and fall back to a fresh compile, never reach an engine.
bool probe(const Object& obj, const Abi& abi) {
  const std::string p = abi.prefix;
  const auto fn = [&](const std::string& suffix) {
    return obj.sym((p + suffix).c_str());
  };
  const auto version = reinterpret_cast<unsigned (*)()>(fn("_abi"));
  const auto lanes = reinterpret_cast<unsigned (*)()>(fn("_lanes"));
  const auto size = reinterpret_cast<unsigned long long (*)()>(
      fn(std::string("_") + abi.size_name));
  return version != nullptr && version() == abi.version && lanes != nullptr &&
         lanes() == abi.lanes && size != nullptr && size() == abi.size &&
         fn("_scratch") != nullptr && fn("_eval") != nullptr &&
         fn("_step") != nullptr;
}

}  // namespace

void Runtime::bind(const std::function<Parts()>& emit,
                   CompileOptions opt, const Abi& abi, WideFn wide,
                   void* ctx) {
  if (jit_disabled_by_env()) opt.force_fallback = true;
  // A forced fallback never reads the source: compile() returns before
  // the source is used, so skip the emission.
  const Parts src = opt.force_fallback ? Parts{} : emit();
  opt.validate = [&abi](const Object& o) { return probe(o, abi); };
  std::string tag = abi.prefix;  // the temp dir prefix: osss-gate, osss-tape
  std::replace(tag.begin(), tag.end(), '_', '-');
  obj_ = compile(src, opt, tag.c_str(), log_);
  if (obj_ != nullptr && !probe(*obj_, abi)) {
    log_ += "\n[ABI check failed; using interpreted dispatch]";
    obj_.reset();
  }
  if (obj_ == nullptr) {
    if (!opt.force_fallback) warn_fallback(abi.prefix, log_);
    return;
  }
  const std::string p = abi.prefix;
  eval_ = reinterpret_cast<EvalFn>(obj_->sym((p + "_eval").c_str()));
  wide_ = wide;
  ctx_ = ctx;
  step_ = reinterpret_cast<StepFn>(obj_->sym((p + "_step").c_str()));
  step_settles_ = abi.step_settles;
  scratch_.assign(reinterpret_cast<unsigned long long (*)()>(
                      obj_->sym((p + "_scratch").c_str()))(),
                  0);
}

void to_csr(std::vector<std::vector<std::uint32_t>>& rows,
            std::vector<std::uint32_t>& off, std::vector<std::uint32_t>& flat) {
  off.assign(1, 0);
  off.reserve(rows.size() + 1);
  flat.clear();
  for (std::vector<std::uint32_t>& r : rows) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    flat.insert(flat.end(), r.begin(), r.end());
    off.push_back(static_cast<std::uint32_t>(flat.size()));
  }
}

void Runtime::reset() {
  for (auto& m : mems_) std::fill(m.begin(), m.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 1);
  pending_ = true;
}

void Runtime::restore_poweron() {
  arena_ = poweron_;
  for (auto& m : mems_) std::fill(m.begin(), m.end(), 0);
  // The snapshot was taken settled, so the schedule is clean.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  pending_ = false;
}

}  // namespace osss::jit
