// ishare::sched — fixed-size worker pool with per-worker deques
// (DESIGN.md section 10).
//
// Paper anchor: the pace-tuned shared plans of "Resource-efficient Shared
// Query Execution via Exploiting Time Slackness" (Sec. 4) stagger subplan
// executions across virtual time, so at any pace boundary several
// independent subplans are runnable at once. The pool is the mechanism
// that lets the AdaptiveExecutor dispatch one dependency level of such
// subplans onto `num_threads` OS threads, in the spirit of Shared
// Arrangements (McSherry et al.), where inter-query sharing composes with
// data-parallel workers.
//
// Structure: one double-ended task queue per worker. An owner pushes and
// pops at the back of its own deque; idle workers steal from the front
// of a victim's deque. All deques are guarded by a single pool mutex —
// dispatch granularity here is a subplan execution (microseconds to
// milliseconds), so a contended lock per push/pop is noise, and the
// coarse lock keeps the pool trivially race-free under tsan. The deque-per-worker shape is kept so the
// steal/locality accounting (sched.pool.steals, per-worker series)
// reflects real scheduling behaviour.
//
// ParallelFor is the only submission API the executors use. It is
// cooperative and reentrant: the calling thread claims indices itself,
// and while waiting for stragglers it executes other pool tasks
// (help-while-waiting), so nested ParallelFor calls from inside a task
// cannot deadlock. Determinism contract: ParallelFor guarantees each
// index runs exactly once and the call returns only after all indices
// finished; it guarantees nothing about order, so callers that need
// bit-exact results must make iterations write to disjoint state (see
// the level loop in exec/adaptive_executor.cc).
#ifndef ISHARE_SCHED_WORKER_POOL_H_
#define ISHARE_SCHED_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "ishare/obs/metrics_registry.h"

namespace ishare {
namespace sched {

class WorkerPool {
 public:
  // Spawns `num_threads - 1` worker threads (the caller of ParallelFor
  // is always the remaining worker). num_threads <= 1 spawns nothing and
  // ParallelFor degenerates to a serial loop.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(0), ..., fn(n - 1), each exactly once, across the pool plus
  // the calling thread; returns after all have finished. Reentrant: fn
  // may itself call ParallelFor on the same pool.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  // Chaos hook (DESIGN.md §11): each of the next `tasks` dequeued pool
  // tasks busy-waits for `seconds` of wall clock before running, modelling
  // a stalled/descheduled worker. Results are unchanged by the pool's
  // determinism contract — every index still runs exactly once — only
  // timing and steal/idle accounting move, which is exactly what the
  // chaos harness's bit-exactness gate verifies. A second call replaces
  // any remaining delay budget; counted in sched.pool.injected_delays.
  void InjectDelay(int64_t tasks, double seconds);

  // Remaining injected-delay budget (tasks not yet stalled).
  int64_t pending_delays() const {
    return delay_tasks_.load(std::memory_order_relaxed);
  }

 private:
  struct ForState {
    int64_t n = 0;
    const std::function<void(int64_t)>* fn = nullptr;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
  };

  using Task = std::function<void()>;

  void WorkerLoop(int worker_id);
  // Claims indices from `st` until exhausted, running them inline.
  void Drain(ForState* st);
  // Consumes one unit of injected-delay budget, spinning if one was held.
  void MaybeStall();
  // Pops one task (own deque back first, then steal a victim's front)
  // and runs it. Returns false when every deque is empty.
  bool TryRunOne(int self_id);
  bool HaveWorkLocked() const;

  const int num_threads_;
  std::vector<std::thread> threads_;

  // All deques share `mu_` (see file comment for why this is coarse on
  // purpose). deques_[i] belongs to worker i; the last slot belongs to
  // external (non-pool) submitters such as the executor's driver thread.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Task>> deques_;
  bool stop_ = false;

  // Injected-delay budget (InjectDelay): remaining stalled tasks and the
  // per-task stall length in nanoseconds.
  std::atomic<int64_t> delay_tasks_{0};
  std::atomic<int64_t> delay_nanos_{0};

  obs::Counter* tasks_counter_;
  obs::Counter* delay_counter_;
  obs::Counter* steals_counter_;
  obs::Counter* parallel_for_counter_;
  obs::Histogram* idle_hist_;
  std::vector<obs::Counter*> worker_task_counters_;
  std::vector<obs::Counter*> worker_steal_counters_;
};

}  // namespace sched
}  // namespace ishare

#endif  // ISHARE_SCHED_WORKER_POOL_H_
