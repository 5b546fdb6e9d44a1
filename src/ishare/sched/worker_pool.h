// ishare::sched — fixed-size fork-join worker pool (DESIGN.md section 10).
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
// Structure: one job slot. `num_threads - 1` workers sleep until
// ParallelFor publishes a job; the caller and the woken workers then claim
// indices from one atomic counter, and the call returns once every index
// has finished. A dispatch is a whole subplan execution (microseconds to
// milliseconds), so one mutex for the slot and the wake-ups is noise.
//
// ParallelFor is the only submission API the executors use, and it does
// not nest: a ParallelFor issued while the pool runs a job (from inside a
// task, or from a second thread) is a CHECK failure. Determinism contract:
// each index runs exactly once and the call returns only after all
// indices finished; nothing is guaranteed about order, so callers that
// need bit-exact results must make iterations write to disjoint state (see
// the level loop in exec/adaptive_executor.cc).
#ifndef ISHARE_SCHED_WORKER_POOL_H_
#define ISHARE_SCHED_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
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

  // Runs fn(0), ..., fn(n - 1), each exactly once, across the pool plus
  // the calling thread; returns after all have finished. A 1-thread pool
  // and n == 1 run inline in index order.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  // Chaos hook (DESIGN.md §11): the next `tasks` times a worker joins a
  // job, it busy-waits for `seconds` of wall clock first, modelling a
  // stalled/descheduled worker. Results are unchanged by the pool's
  // determinism contract — every index still runs exactly once — only
  // timing moves, which is exactly what the chaos harness's bit-exactness
  // gate verifies. A second call replaces any remaining delay budget;
  // counted in sched.pool.injected_delays.
  void InjectDelay(int64_t tasks, double seconds);

 private:
  void WorkerLoop();
  // Claims indices of the current job until none is left.
  void Claim(int64_t n, const std::function<void(int64_t)>& fn);
  // Consumes one unit of injected-delay budget, spinning if one was held.
  void MaybeStall();

  // The job slot. `job_` numbers published jobs so a worker joins each at
  // most once; `seats_` is how many workers may still join the current
  // one (0 once the caller has claimed its last index); `active_` counts
  // workers inside it. `fn_` is non-null while a job runs.
  std::mutex mu_;
  std::condition_variable wake_;  // workers: a job was published, or stop
  std::condition_variable left_;  // caller: the last worker left the job
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  uint64_t job_ = 0;
  int seats_ = 0;
  int active_ = 0;
  bool stop_ = false;
  std::atomic<int64_t> next_{0};

  // Injected-delay budget (InjectDelay): remaining stalled joins and the
  // per-join stall length in nanoseconds.
  std::atomic<int64_t> delay_tasks_{0};
  std::atomic<int64_t> delay_nanos_{0};

  obs::Counter* tasks_counter_;
  obs::Counter* delay_counter_;
  obs::Counter* parallel_for_counter_;
  obs::Histogram* idle_hist_;

  // Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace sched
}  // namespace ishare

#endif  // ISHARE_SCHED_WORKER_POOL_H_
