// runtime.hpp — the state and dispatch both native lane engines share.
//
// gate::NativeEngine and rtl::tape::NativeEngine run a levelized design over
// a lane arena, through generated code or their own interpreted sweep.
// Runtime owns what is the same between them: the arena, the memories, one
// dirty byte per level, the power-on snapshot (taken settled, so the first
// read after restore_poweron() evaluates nothing), the run counters, and
// the generated code, bound through one ABI probe.
//
// One settle rule holds for both: a write (an input, a poke, a clock-edge
// commit) only stores and dirty-marks; a read or the next clock edge
// settles first, once, however many writes came before it.  The engines
// pass their own sweeps and commits to settle()/step() as callables.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jit/jit.hpp"

namespace osss::jit {

/// Runs instruction `i` through the engine's own code and returns true when
/// its result changed.  Generated code calls it for each instruction it
/// does not compile; `ctx` is the engine that bound it.
using WideFn = bool (*)(void* ctx, unsigned i) noexcept;

/// Entry points of generated lane code: settle the dirty levels, and one
/// clock edge (sample, commit, dirty-mark) that returns nonzero when the
/// commit changed state.  Arguments: arena, memory table and dirty bytes;
/// then, for eval, the engine callback and its context (gate code ignores
/// both) and, for step, the step scratch.
using EvalFn = void (*)(std::uint64_t*, std::uint64_t* const*, unsigned char*,
                        WideFn, void*);
using StepFn = unsigned (*)(std::uint64_t*, std::uint64_t* const*,
                            unsigned char*, std::uint64_t*);

/// Run counters of a lane engine.  The evaluation counters advance in the
/// interpreted sweeps only; generated code keeps none.
struct RunStats {
  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;  ///< gates or tape instructions evaluated
  std::uint64_t levels_evaluated = 0;
  std::uint64_t levels_skipped = 0;
};

/// What a generated object exports: `<prefix>_abi()` returning `version`,
/// `<prefix>_lanes()`, `<prefix>_<size_name>()` returning `size` (a layout
/// check), `<prefix>_scratch()` (step scratch words), `<prefix>_eval` and
/// `<prefix>_step`.
struct Abi {
  const char* prefix;
  unsigned version;
  unsigned lanes;
  const char* size_name;
  std::uint64_t size;
  /// The generated step ends with a settle, so it leaves nothing pending.
  bool step_settles;
};

/// Flattens per-row lists into the CSR that Runtime::mark reads: each row
/// sorted and deduplicated in place, then appended to `flat`, with
/// off[r] .. off[r + 1] its range.  Overwrites `off` and `flat`.
void to_csr(std::vector<std::vector<std::uint32_t>>& rows,
            std::vector<std::uint32_t>& off, std::vector<std::uint32_t>& flat);

class Runtime {
 public:
  /// A zeroed arena of `arena_words` and `levels` dirty bytes, all set:
  /// nothing is settled yet.
  Runtime(std::size_t arena_words, std::size_t levels)
      : arena_(arena_words, 0), dirty_(levels, 1) {}

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Load the generated code.  Unless `opt.force_fallback` or OSSS_NO_JIT
  /// say otherwise, emit() the parts, compile them through the object
  /// cache and bind the entry points once the ABI probe passes; a forced
  /// fallback emits nothing.  On any failure the engine stays on its
  /// interpreted sweep and compile_log() says why; a failure that was not
  /// forced off also prints one stderr line, quoting the log, the first
  /// time it happens in the process.  The generated eval gets `wide` and
  /// `ctx`.
  void bind(const std::function<Parts()>& emit, CompileOptions opt,
            const Abi& abi, WideFn wide = nullptr, void* ctx = nullptr);
  bool native() const noexcept { return eval_ != nullptr; }
  const std::string& compile_log() const noexcept { return log_; }

  /// Append a zeroed memory of `words` words; mem(i) is the i-th.
  void add_memory(std::size_t words) {
    mems_.emplace_back(words, 0);
    mem_ptrs_.push_back(mems_.back().data());  // moves keep the buffer
  }

  std::uint64_t* arena() noexcept { return arena_.data(); }
  const std::uint64_t* arena() const noexcept { return arena_.data(); }
  std::uint64_t* mem(std::size_t i) noexcept { return mem_ptrs_[i]; }
  unsigned char* dirty() noexcept { return dirty_.data(); }
  RunStats& stats() noexcept { return stats_; }
  const RunStats& stats() const noexcept { return stats_; }

  /// Dirty-mark levels[off[row] .. off[row + 1]) (one CSR row of fanout
  /// levels) and note a pending settle.
  void mark(const std::vector<std::uint32_t>& off,
            const std::vector<std::uint32_t>& levels, std::size_t row) {
    unsigned char* const d = dirty_.data();
    const std::uint32_t* const l = levels.data();
    for (std::uint32_t k = off[row], e = off[row + 1]; k < e; ++k) d[l[k]] = 1;
    pending_ = true;
  }

  /// Settle if anything is pending: the generated eval, else `sweep()`
  /// (the engine's interpreted sweep over dirty()).
  template <class Sweep>
  void settle(Sweep&& sweep) {
    if (!pending_) return;
    if (eval_ != nullptr)
      eval_(arena_.data(), mem_ptrs_.data(), dirty_.data(), wide_, ctx_);
    else
      sweep();
    pending_ = false;
  }

  /// One clock edge of the settled engine: the generated step, else
  /// `commit()` (the engine's sample-and-commit, which marks through mark()).
  template <class Commit>
  void step(Commit&& commit) {
    if (step_ != nullptr) {
      if (step_(arena_.data(), mem_ptrs_.data(), dirty_.data(),
                scratch_.data()) != 0 &&
          !step_settles_)
        pending_ = true;
    } else {
      commit();
    }
    ++stats_.cycles;
  }

  /// Zero the memories and dirty every level (the engine writes its
  /// register init values into the arena around this).
  void reset();
  /// Keep the arena, which the engine has just settled, as the power-on
  /// state.
  void take_poweron() { poweron_ = arena_; }
  /// Return to the power-on state: the settled snapshot, zeroed memories,
  /// nothing pending.
  void restore_poweron();

 private:
  std::vector<std::uint64_t> arena_;
  std::vector<std::uint64_t> poweron_;
  std::vector<std::vector<std::uint64_t>> mems_;
  std::vector<std::uint64_t*> mem_ptrs_;  ///< stable, passed to the code
  std::vector<unsigned char> dirty_;
  bool pending_ = true;
  RunStats stats_;

  std::shared_ptr<Object> obj_;  ///< shared through the object cache
  EvalFn eval_ = nullptr;
  WideFn wide_ = nullptr;
  void* ctx_ = nullptr;
  StepFn step_ = nullptr;
  bool step_settles_ = false;
  std::vector<std::uint64_t> scratch_;  ///< sized by `<prefix>_scratch()`
  std::string log_;
};

}  // namespace osss::jit
