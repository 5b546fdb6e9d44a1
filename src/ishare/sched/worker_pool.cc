#include "ishare/sched/worker_pool.h"

#include <chrono>
#include <string>
#include <utility>

namespace ishare {
namespace sched {

namespace {

// Pool-worker identity of the current thread: the worker's deque index,
// or -1 for threads that do not belong to any pool (they submit through
// the external slot). A thread belongs to at most one pool at a time —
// executors each own a private pool and never nest executors — so a
// plain id (rather than a per-pool map) suffices.
thread_local int tls_worker_id = -1;

}  // namespace

WorkerPool::WorkerPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // Worker deques [0, num_threads_ - 2], plus one external-submitter slot.
  const int spawned = num_threads_ - 1;
  deques_.resize(static_cast<size_t>(spawned) + 1);

  obs::MetricsRegistry& reg = obs::Registry();
  tasks_counter_ = &reg.GetCounter("sched.pool.tasks");
  delay_counter_ = &reg.GetCounter("sched.pool.injected_delays");
  steals_counter_ = &reg.GetCounter("sched.pool.steals");
  parallel_for_counter_ = &reg.GetCounter("sched.pool.parallel_for");
  idle_hist_ = &reg.GetHistogram("sched.pool.idle_seconds");
  worker_task_counters_.reserve(spawned);
  worker_steal_counters_.reserve(spawned);
  for (int i = 0; i < spawned; ++i) {
    const std::string label = "#w" + std::to_string(i);
    worker_task_counters_.push_back(
        &reg.GetCounter("sched.pool.tasks" + label));
    worker_steal_counters_.push_back(
        &reg.GetCounter("sched.pool.steals" + label));
  }

  threads_.reserve(spawned);
  for (int i = 0; i < spawned; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Drain(ForState* st) {
  for (;;) {
    const int64_t i = st->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st->n) return;
    (*st->fn)(i);
    st->done.fetch_add(1, std::memory_order_release);
  }
}

bool WorkerPool::HaveWorkLocked() const {
  for (const std::deque<Task>& d : deques_) {
    if (!d.empty()) return true;
  }
  return false;
}

bool WorkerPool::TryRunOne(int self_id) {
  Task task;
  bool stolen = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int slots = static_cast<int>(deques_.size());
    const int own = (self_id >= 0 && self_id < slots) ? self_id : slots - 1;
    if (!deques_[own].empty()) {
      // Owner end: newest task first (depth-first, cache-warm).
      task = std::move(deques_[own].back());
      deques_[own].pop_back();
    } else {
      // Steal end: oldest task first from the first non-empty victim.
      for (int v = 0; v < slots; ++v) {
        if (v == own || deques_[v].empty()) continue;
        task = std::move(deques_[v].front());
        deques_[v].pop_front();
        stolen = true;
        break;
      }
      if (!task) return false;
    }
  }
  tasks_counter_->Add(1);
  if (self_id >= 0 && self_id < static_cast<int>(worker_task_counters_.size())) {
    worker_task_counters_[self_id]->Add(1);
    if (stolen) worker_steal_counters_[self_id]->Add(1);
  }
  if (stolen) steals_counter_->Add(1);
  MaybeStall();
  task();
  return true;
}

void WorkerPool::InjectDelay(int64_t tasks, double seconds) {
  delay_nanos_.store(
      seconds > 0 ? static_cast<int64_t>(seconds * 1e9) : 0,
      std::memory_order_relaxed);
  delay_tasks_.store(tasks > 0 ? tasks : 0, std::memory_order_relaxed);
}

void WorkerPool::MaybeStall() {
  int64_t d = delay_tasks_.load(std::memory_order_relaxed);
  while (d > 0 && !delay_tasks_.compare_exchange_weak(
                      d, d - 1, std::memory_order_relaxed)) {
  }
  if (d <= 0) return;
  delay_counter_->Add(1);
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(delay_nanos_.load(std::memory_order_relaxed));
  // Busy-yield rather than sleep: a stalled worker still holds its core
  // from the scheduler's point of view, which is the straggler shape the
  // help-while-waiting loop must absorb.
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

void WorkerPool::WorkerLoop(int worker_id) {
  tls_worker_id = worker_id;
  for (;;) {
    while (TryRunOne(worker_id)) {
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    if (!HaveWorkLocked()) {
      const auto idle_start = std::chrono::steady_clock::now();
      cv_.wait(lock, [this] { return stop_ || HaveWorkLocked(); });
      idle_hist_->Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - idle_start)
                              .count());
      if (stop_) return;
    }
  }
}

void WorkerPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (num_threads_ <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel_for_counter_->Add(1);

  // Shared so a leftover claim-loop task popped after this call returns
  // (all indices already claimed) still has a live ForState to look at;
  // it then sees next >= n and exits without touching `fn`.
  auto st = std::make_shared<ForState>();
  st->n = n;
  st->fn = &fn;

  // One claim-loop task per helper; the calling thread claims inline.
  // Helpers that find no indices left exit immediately, so oversubmitting
  // is harmless.
  const int spawned = static_cast<int>(threads_.size());
  const int helpers =
      static_cast<int>(n - 1 < spawned ? n - 1 : spawned);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      deques_[h].push_back([this, st] { Drain(st.get()); });
    }
  }
  if (helpers > 0) cv_.notify_all();

  Drain(st.get());
  // Help-while-waiting: stragglers may still be inside fn; run unrelated
  // pool tasks (e.g. a sibling's nested ParallelFor) instead of blocking
  // so reentrant submission cannot deadlock.
  while (st->done.load(std::memory_order_acquire) < n) {
    if (!TryRunOne(tls_worker_id)) std::this_thread::yield();
  }
}

}  // namespace sched
}  // namespace ishare
