#include "ishare/sched/worker_pool.h"

#include <algorithm>
#include <chrono>

#include "ishare/common/check.h"

namespace ishare {
namespace sched {

WorkerPool::WorkerPool(int num_threads) {
  obs::MetricsRegistry& reg = obs::Registry();
  tasks_counter_ = &reg.GetCounter("sched.pool.tasks");
  delay_counter_ = &reg.GetCounter("sched.pool.injected_delays");
  parallel_for_counter_ = &reg.GetCounter("sched.pool.parallel_for");
  idle_hist_ = &reg.GetHistogram("sched.pool.idle_seconds");

  for (int i = 1; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Claim(int64_t n, const std::function<void(int64_t)>& fn) {
  for (;;) {
    const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    fn(i);
  }
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
  // caller's own claims must absorb.
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t joined = 0;  // last job this worker joined
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto ready = [&] { return stop_ || (job_ != joined && seats_ > 0); };
    if (!ready()) {
      const auto idle_start = std::chrono::steady_clock::now();
      wake_.wait(lock, ready);
      idle_hist_->Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - idle_start)
                              .count());
    }
    if (stop_) return;
    joined = job_;
    --seats_;
    ++active_;
    const int64_t n = n_;
    const std::function<void(int64_t)>& fn = *fn_;
    lock.unlock();
    tasks_counter_->Add(1);
    MaybeStall();
    Claim(n, fn);
    lock.lock();
    if (--active_ == 0) left_.notify_one();
  }
}

void WorkerPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (threads_.empty() || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel_for_counter_->Add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(fn_ == nullptr) << "nested ParallelFor on a worker pool";
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    ++job_;
    seats_ = static_cast<int>(
        std::min<int64_t>(n - 1, static_cast<int64_t>(threads_.size())));
  }
  wake_.notify_all();
  Claim(n, fn);
  // Every index is claimed: close the job to late risers, then wait for
  // the workers still running theirs.
  std::unique_lock<std::mutex> lock(mu_);
  seats_ = 0;
  left_.wait(lock, [this] { return active_ == 0; });
  fn_ = nullptr;
}

}  // namespace sched
}  // namespace ishare
