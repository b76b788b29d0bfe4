#include "par/pool.hpp"

#include "par/env.hpp"

namespace osss::par {

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned env_threads(unsigned fallback) {
  if (fallback == 0) fallback = hardware_threads();
  return static_cast<unsigned>(env_u64("OSSS_THREADS", fallback, 1, 256));
}

Pool::Pool(unsigned threads) {
  slots_ = threads != 0 ? threads : env_threads();
  if (slots_ == 0) slots_ = 1;
  if (slots_ > 256) slots_ = 256;
  slot_.reserve(slots_);
  for (unsigned i = 0; i < slots_; ++i)
    slot_.push_back(std::make_unique<Slot>());
  threads_.reserve(slots_ - 1);
  for (unsigned i = 1; i < slots_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Pool& Pool::global() {
  static Pool pool;
  return pool;
}

Pool::Stats Pool::stats() const {
  Stats s;
  s.executed = executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.stolen_tasks = stolen_.load(std::memory_order_relaxed);
  return s;
}

void Pool::push(Task t) {
  const unsigned s = rr_.fetch_add(1, std::memory_order_relaxed) % slots_;
  {
    std::lock_guard<std::mutex> lk(slot_[s]->m);
    slot_[s]->q.push_back(std::move(t));
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  // Empty critical section pairs with the predicate re-check in
  // worker_loop: a worker between its predicate check and its wait cannot
  // miss this notify.
  { std::lock_guard<std::mutex> lk(wake_m_); }
  wake_cv_.notify_one();
}

bool Pool::take(unsigned home, Task& out) {
  {
    Slot& s = *slot_[home];
    std::lock_guard<std::mutex> lk(s.m);
    if (!s.q.empty()) {
      out = std::move(s.q.back());  // LIFO on the owner: warm caches
      s.q.pop_back();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      executed_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal: scan victims round-robin and take half of the first non-empty
  // deque from the front (the oldest, coarsest-grained tasks).
  for (unsigned k = 1; k < slots_; ++k) {
    const unsigned v = (home + k) % slots_;
    std::vector<Task> loot;
    {
      Slot& s = *slot_[v];
      std::lock_guard<std::mutex> lk(s.m);
      const std::size_t n = s.q.size();
      if (n == 0) continue;
      const std::size_t grab = (n + 1) / 2;
      loot.reserve(grab);
      for (std::size_t i = 0; i < grab; ++i) {
        loot.push_back(std::move(s.q.front()));
        s.q.pop_front();
      }
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    stolen_.fetch_add(loot.size(), std::memory_order_relaxed);
    out = std::move(loot.front());
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (loot.size() > 1) {
      Slot& s = *slot_[home];
      std::lock_guard<std::mutex> lk(s.m);
      for (std::size_t i = 1; i < loot.size(); ++i)
        s.q.push_back(std::move(loot[i]));
    }
    return true;
  }
  return false;
}

void Pool::worker_loop(unsigned slot) {
  Task t;
  while (true) {
    if (take(slot, t)) {
      t();
      t = nullptr;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(wake_m_);
    wake_cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

void Pool::parallel_for(std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (slots_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Chunked fan-out: a few chunks per context so steal-half has coarse
  // tasks to rebalance, without per-index queue traffic.
  const std::size_t chunks =
      std::min<std::size_t>(n, std::size_t{slots_} * 4);
  const std::size_t per = (n + chunks - 1) / chunks;

  struct Ctl {
    // remaining is decremented by every finishing chunk on every worker;
    // keep it off the line holding the completion mutex/cv so the final
    // wakeup handshake doesn't contend with mid-run decrements.
    alignas(64) std::atomic<std::size_t> remaining{0};
    alignas(64) std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  const auto ctl = std::make_shared<Ctl>();
  ctl->remaining.store(chunks, std::memory_order_release);

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(n, lo + per);
    push([ctl, lo, hi, &body] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(ctl->m);
        if (!ctl->error) ctl->error = std::current_exception();
      }
      if (ctl->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(ctl->m);
        ctl->cv.notify_all();
      }
    });
  }

  // The caller is context 0: execute tasks (its own chunks or anyone
  // else's) until every chunk has retired.
  Task t;
  while (ctl->remaining.load(std::memory_order_acquire) != 0) {
    if (take(0, t)) {
      t();
      t = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(ctl->m);
    ctl->cv.wait_for(lk, std::chrono::microseconds(200), [&] {
      return ctl->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (ctl->error) std::rethrow_exception(ctl->error);
}

}  // namespace osss::par
