// pool.hpp — work-stealing thread pool for the verification stack.
//
// One Pool = a fixed set of execution contexts: slot 0 is the calling
// thread (it participates whenever it blocks in parallel_for), slots
// 1..size()-1 are background workers.  Each slot owns a deque of tasks;
// a slot out of local work steals half of a victim's deque (oldest tasks
// first), which keeps coarse chunks spreading instead of ping-ponging
// single tasks.
//
// The pool is deliberately simple — per-deque mutexes, one wake condition
// variable — because the verification workloads it serves (CoSim fuzz
// shards, equivalence sequences, batch simulation blocks) are coarse: a
// task is thousands of simulated cycles, so queue overhead is noise and
// the implementation stays obviously ThreadSanitizer-clean.
//
// Determinism contract: the pool never reorders *results*.  parallel_map
// writes result i of work item i into slot i, so a caller that folds
// those slots in ascending index order gets a reduction bit-identical for
// every thread count (including 1, which runs inline on the caller with no
// threads spawned).  Thread count comes from the
// constructor, or OSSS_THREADS / std::thread::hardware_concurrency when
// constructed with 0 (see env_threads).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace osss::par {

/// std::thread::hardware_concurrency, never 0.
unsigned hardware_threads();

/// Worker count for Pool(0): OSSS_THREADS when set (hardened parse,
/// clamped to [1, 256] with a stderr warning), else `fallback`, else
/// hardware_threads().
unsigned env_threads(unsigned fallback = 0);

class Pool {
 public:
  /// `threads` execution contexts including the caller; 0 = env_threads().
  /// A 1-context pool spawns no threads and runs everything inline.
  explicit Pool(unsigned threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned size() const noexcept { return slots_; }

  /// Run body(0..n-1), each index exactly once, across the pool; blocks
  /// until all complete (the caller executes tasks while it waits).  The
  /// first exception thrown by `body` is rethrown here after completion.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Ordered map: out[i] = fn(i).  Result order is index order regardless
  /// of execution order — the deterministic-reduction primitive.
  template <class T>
  std::vector<T> parallel_map(std::size_t n,
                              const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }


  struct Stats {
    std::uint64_t executed = 0;      ///< tasks run to completion
    std::uint64_t steals = 0;        ///< successful steal transactions
    std::uint64_t stolen_tasks = 0;  ///< tasks moved by those steals
  };
  Stats stats() const;

  /// Process-wide pool sized by OSSS_THREADS / hardware_concurrency;
  /// everything that takes an optional `par::Pool*` defaults to this.
  static Pool& global();

 private:
  using Task = std::function<void()>;
  /// Cache-line aligned so one worker hammering its deque mutex never
  /// invalidates a neighbour's line (the Slots are heap-allocated
  /// contiguously via make_unique and were landing back to back).
  struct alignas(64) Slot {
    std::mutex m;
    std::deque<Task> q;
  };

  unsigned slots_ = 1;
  std::vector<std::unique_ptr<Slot>> slot_;
  std::vector<std::thread> threads_;
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  // Hot counters each on their own cache line: pending_ is written by every
  // push/completion, the stats counters by every task/steal on every
  // worker.  Packed together (the old layout) they false-share — all four
  // plus rr_ sat in one line, so each push invalidated every worker's
  // cached copy and flat thread scaling resulted on multi-core hosts.
  alignas(64) std::atomic<std::int64_t> pending_{0};
  alignas(64) std::atomic<std::uint32_t> rr_{0};
  alignas(64) std::atomic<std::uint64_t> executed_{0};
  alignas(64) std::atomic<std::uint64_t> steals_{0};
  alignas(64) std::atomic<std::uint64_t> stolen_{0};

  void push(Task t);
  bool take(unsigned home, Task& out);
  void worker_loop(unsigned slot);
};

}  // namespace osss::par
