// ishare::chaos — deterministic cross-layer fault orchestration
// (DESIGN.md §11). A FaultSchedule is a seeded, declarative description of
// every fault one run experiences, across every layer the engine has:
//
//   kSourcePerturb   stream-arrival perturbations (carried as a FaultPlan
//                    and realized at source construction — bursts, stalls,
//                    rate drift, jitter, reorder);
//   kBufferStorm     transient admission faults on the base delta buffers
//                    (the consume path's retry spine absorbs them);
//   kStoreTransient  checkpoint-store Stage/Commit outages, from blips the
//                    manager's store retry absorbs to multi-epoch outages
//                    that trip the Supervisor's checkpoint breaker;
//   kStoreBitRot     in-place corruption of the newest committed epoch
//                    (recovery must fall back to an older intact one);
//   kMemoryPressure  phantom bytes held against the memory budget for a
//                    span of steps (drives deferral/shedding and the
//                    memory breaker);
//   kWorkerStall     injected stalls of worker-pool tasks (stragglers the
//                    help-while-waiting loop must absorb);
//   kQueryChurn      membership churn against a ChurnRuntime (arrival
//                    storms and departures applied at the next pace
//                    boundary; admission control turns pressure into
//                    deferral, so churn events never fail a run);
//   kShardStall      one shard of a sharded group stops stepping for a
//                    span of rounds (the straggler the slackness policy
//                    must absorb or escalate, DESIGN.md §14);
//   kShardCrash      one shard of a sharded group crashes; the group
//                    recovers every shard to the last consistent epoch.
//
// Time is virtual: events arm at executor step boundaries, never wall
// clock, so a schedule replays bit-identically from its seed. The
// ChaosInjector applies a schedule to live engine components and keeps a
// log of what actually landed; the chaos harness cross-checks every
// breaker trip against that log (attribution invariant).

#ifndef ISHARE_CHAOS_FAULT_SCHEDULE_H_
#define ISHARE_CHAOS_FAULT_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/sched/worker_pool.h"
#include "ishare/storage/perturbed_source.h"
#include "ishare/storage/stream_source.h"

namespace ishare::chaos {

enum class ChaosLayer {
  kSourcePerturb,
  kBufferStorm,
  kStoreTransient,
  kStoreBitRot,
  kMemoryPressure,
  kWorkerStall,
  kQueryChurn,
  kShardStall,
  kShardCrash,
};

const char* ChaosLayerName(ChaosLayer layer);

// One step-armed fault. `step` is the 1-based executor step during which
// the fault is live; the injector arms it at the preceding boundary.
// `count` and `magnitude` are layer-specific:
//   kBufferStorm:    count = consume calls that fail per base buffer;
//   kStoreTransient: count = Stage/Commit calls that fail (-1 = forever);
//   kStoreBitRot:    unused;
//   kMemoryPressure: count = steps the spike stays held, magnitude =
//                    phantom bytes as a fraction of the budget;
//   kWorkerStall:    count = pool tasks stalled, magnitude = seconds each;
//   kQueryChurn:     count = query arrivals (may be 0), magnitude =
//                    departures (integral);
//   kShardStall:     count = rounds the shard skips, magnitude = shard id;
//   kShardCrash:     count unused, magnitude = shard id.
struct ChaosEvent {
  ChaosLayer layer = ChaosLayer::kStoreTransient;
  int64_t step = 1;
  int64_t count = 1;
  double magnitude = 0;

  std::string ToString() const;
};

// Knobs for FaultSchedule::Random. The defaults compose a few absorbable
// faults with occasional breaker-tripping outages over a small window;
// each event's size is drawn under the bounds beside Random.
struct ChaosScheduleOptions {
  int num_events = 6;         // step-armed events (non-source layers)
  int num_source_events = 2;  // FaultPlan events (0 = clean stream)
  int64_t max_step = 8;       // events land on steps [1, max_step]
  // Query-churn events (arrival storms / departures against a churn
  // callback). Default 0 keeps every pre-churn schedule byte-identical
  // for a given seed; churn runs opt in explicitly.
  int churn_events = 0;
  int64_t max_churn_arrivals = 2;
  int64_t max_churn_departures = 2;
  // Shard-group events (stalls / crashes against a ShardedRuntime's
  // callbacks). Like churn they default to 0 and draw after every other
  // event, so pre-shard schedules stay byte-identical for a given seed.
  int shard_events = 0;
  int num_shards_hint = 2;          // shard ids drawn from [0, hint)
  double shard_crash_probability = 0.3;  // else the event is a stall
};

// A complete, replayable chaos scenario: seeded source perturbations plus
// step-armed events across the other layers.
struct FaultSchedule {
  uint64_t seed = 0;
  FaultPlan source_plan;
  std::vector<ChaosEvent> events;

  Status Validate() const;
  std::string ToString() const;

  // Deterministic composed schedule: same seed + options + tables ⇒
  // byte-identical schedule. `tables` feeds FaultPlan::Random.
  static FaultSchedule Random(uint64_t seed,
                              const ChaosScheduleOptions& opts = {},
                              const std::vector<std::string>& tables = {});
};

// What the injector actually did, for attribution. `step` is the step the
// fault was armed for (0 = present from the start, e.g. source plans).
struct InjectionRecord {
  int64_t step = 0;
  ChaosLayer layer = ChaosLayer::kSourcePerturb;
  std::string detail;
};

// Applies a FaultSchedule to live engine components at step boundaries.
// Every target is optional: events whose target is absent are skipped
// (and not logged), so one schedule drives serial, parallel, budgeted and
// unbudgeted runs alike.
class ChaosInjector {
 public:
  struct Targets {
    recovery::MemoryCheckpointStore* store = nullptr;
    flow::MemoryBudget* budget = nullptr;
    sched::WorkerPool* pool = nullptr;
    StreamSource* source = nullptr;  // base buffers for admission storms
    // kQueryChurn sink, (arrivals, departures) — typically bound to
    // ChurnRuntime::InjectChurn. A callback (not a pointer) so the chaos
    // layer stays independent of the churn module, and because the
    // injector is usually built before the runtime's executor exists.
    std::function<Status(int arrivals, int departures)> churn;
    // kShardStall / kShardCrash sinks, typically bound to
    // ShardedRuntime::InjectStall / InjectCrash. Callbacks for the same
    // reason as `churn`: the chaos layer stays independent of the shard
    // module.
    std::function<Status(int shard, int64_t rounds)> shard_stall;
    std::function<Status(int shard)> shard_crash;
  };

  ChaosInjector(FaultSchedule schedule, Targets targets);

  // Arms every not-yet-applied event with event.step <= completed + 1 and
  // retires expired memory-pressure spikes. Call with completed = 0
  // before the first step, then from the executor's after-step hook.
  Status OnStepBoundary(int64_t completed);

  const FaultSchedule& schedule() const { return schedule_; }
  const std::vector<InjectionRecord>& log() const { return log_; }

  // True when some event of `layer` was applied at a step <= `by_step`
  // (the attribution predicate breaker trips are checked against).
  bool AnyInjected(ChaosLayer layer, int64_t by_step) const;

 private:
  Status Apply(const ChaosEvent& ev);
  void Record(int64_t step, ChaosLayer layer, std::string detail);

  FaultSchedule schedule_;
  Targets targets_;
  size_t next_event_ = 0;  // events_ sorted by step; prefix applied
  std::vector<InjectionRecord> log_;

  // Active memory-pressure spikes: phantom bytes held until `until_step`
  // completes. Summed into one budget component per boundary.
  struct PressureSpike {
    int64_t until_step = 0;
    int64_t bytes = 0;
  };
  std::vector<PressureSpike> spikes_;
  int pressure_component_ = -1;
};

}  // namespace ishare::chaos

#endif  // ISHARE_CHAOS_FAULT_SCHEDULE_H_
