// Tuning knobs for the parallel pace-boundary scheduler (DESIGN.md
// section 10). The paper's pace-tuned shared plans (Sec. 4) leave several
// independent subplans runnable at every pace boundary; `num_threads`
// controls how many OS threads the owning executor may use to dispatch
// them concurrently. `num_threads == 1` selects the fully serial legacy
// path, byte-identical to the pre-scheduler executors.
//
// Header-only and dependency-free so exec/metrics.h can embed it in
// ExecOptions without pulling in the worker pool.
#ifndef ISHARE_SCHED_OPTIONS_H_
#define ISHARE_SCHED_OPTIONS_H_

namespace ishare {
namespace sched {

struct SchedulerOptions {
  // Worker threads available to one executor. 1 = serial execution.
  int num_threads = 1;
};

}  // namespace sched
}  // namespace ishare

#endif  // ISHARE_SCHED_OPTIONS_H_
