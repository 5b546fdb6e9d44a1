// ishare::sched — static dependency levels for pace boundaries
// (DESIGN.md section 10).
//
// Paper anchor: subplans in a pace-tuned shared plan (Sec. 2.2 / Sec. 4)
// form a DAG whose edges are producer/consumer DeltaBuffers. At a pace
// boundary a child must finish appending its delta before a parent
// consumes it, while subplans with no ancestor/descendant relation are
// independent and may run concurrently. StaticLevels groups the graph
// into such dependency levels: level 0 has no producer, level k+1
// consumes only levels <= k. The executor dispatches one level at a time
// with a barrier between levels, which is exactly the ordering the serial
// topo loop guarantees — so parallel execution stays bit-exact with
// serial (the determinism argument in DESIGN.md section 10).
#ifndef ISHARE_SCHED_WAVE_H_
#define ISHARE_SCHED_WAVE_H_

#include <vector>

#include "ishare/plan/subplan_graph.h"

namespace ishare {
namespace sched {

// Dependency levels over the whole graph. A subplan's level is 0 if it
// has no children, else 1 + the max level of its children. Each level
// preserves children-first topo order internally; concatenating the
// levels is a permutation of the subplans. The AdaptiveExecutor makes its
// per-step run/skip/catch-up decisions level by level over this fixed
// structure.
std::vector<std::vector<int>> StaticLevels(const SubplanGraph& graph);

}  // namespace sched
}  // namespace ishare

#endif  // ISHARE_SCHED_WAVE_H_
