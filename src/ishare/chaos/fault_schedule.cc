#include "ishare/chaos/fault_schedule.h"

#include <algorithm>
#include <utility>

#include "ishare/common/rng.h"
#include "ishare/obs/obs.h"

namespace ishare::chaos {

const char* ChaosLayerName(ChaosLayer layer) {
  switch (layer) {
    case ChaosLayer::kSourcePerturb:
      return "source";
    case ChaosLayer::kBufferStorm:
      return "buffer";
    case ChaosLayer::kStoreTransient:
      return "store";
    case ChaosLayer::kStoreBitRot:
      return "bitrot";
    case ChaosLayer::kMemoryPressure:
      return "memory";
    case ChaosLayer::kWorkerStall:
      return "worker";
    case ChaosLayer::kQueryChurn:
      return "churn";
    case ChaosLayer::kShardStall:
      return "shard-stall";
    case ChaosLayer::kShardCrash:
      return "shard-crash";
  }
  return "?";
}

std::string ChaosEvent::ToString() const {
  std::string s = ChaosLayerName(layer);
  s += "@" + std::to_string(step);
  s += " count=" + std::to_string(count);
  s += " mag=" + std::to_string(magnitude);
  return s;
}

Status FaultSchedule::Validate() const {
  ISHARE_RETURN_NOT_OK(source_plan.Validate());
  for (const ChaosEvent& ev : events) {
    if (ev.step < 1) {
      return Status::InvalidArgument("chaos event step must be >= 1: " +
                                     ev.ToString());
    }
    // Churn events may carry count = 0: a pure-departure event has no
    // arrivals (its departures live in the magnitude).
    int64_t min_count = ev.layer == ChaosLayer::kQueryChurn ? 0 : 1;
    if (ev.layer == ChaosLayer::kShardStall && ev.count < 1) {
      return Status::InvalidArgument(
          "shard stall must span >= 1 round: " + ev.ToString());
    }
    if (ev.count < -1 || (ev.count < min_count && ev.count != -1)) {
      return Status::InvalidArgument(
          "chaos event count must be positive or -1 (forever): " +
          ev.ToString());
    }
    if (ev.magnitude < 0) {
      return Status::InvalidArgument("chaos event magnitude must be >= 0: " +
                                     ev.ToString());
    }
  }
  return Status::OK();
}

std::string FaultSchedule::ToString() const {
  std::string s = "seed=" + std::to_string(seed);
  if (!source_plan.empty()) s += " source{" + source_plan.ToString() + "}";
  for (const ChaosEvent& ev : events) s += " [" + ev.ToString() + "]";
  return s;
}

namespace {
// Bounds of the events FaultSchedule::Random draws. Buffer storms stay
// below the executor's consume-retry budget so they are absorbed, never
// fatal.
constexpr int64_t kMaxBufferFaults = 2;
// Short store blips (absorbed by the manager's store retry) ...
constexpr int64_t kMaxTransientCount = 2;
// ... vs. real outages that outlast the retry budget and trip the
// checkpoint breaker, occasionally forever (safe-stop path).
constexpr double kOutageProbability = 0.2;
constexpr int64_t kOutageCount = 8;
constexpr double kForeverOutageProbability = 0.05;
// Memory-pressure spikes: phantom fraction of the budget and hold time.
constexpr double kMaxPressureMagnitude = 1.5;
constexpr int64_t kMaxPressureSteps = 4;
// Worker stalls: tasks stalled and seconds per task (kept tiny — the
// point is reordering stress, not wall-clock waste).
constexpr int64_t kMaxStallTasks = 8;
constexpr double kMaxStallSeconds = 0.002;
// Rounds a stalled shard skips.
constexpr int64_t kMaxShardStallRounds = 3;
}  // namespace

FaultSchedule FaultSchedule::Random(uint64_t seed,
                                    const ChaosScheduleOptions& opts,
                                    const std::vector<std::string>& tables) {
  FaultSchedule out;
  out.seed = seed;
  if (opts.num_source_events > 0) {
    out.source_plan =
        FaultPlan::Random(seed ^ 0x5042ce0ULL, opts.num_source_events, tables);
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4a05);
  for (int i = 0; i < opts.num_events; ++i) {
    ChaosEvent ev;
    ev.step = rng.UniformInt(1, std::max<int64_t>(opts.max_step, 1));
    switch (rng.UniformInt(0, 4)) {
      case 0:
        ev.layer = ChaosLayer::kBufferStorm;
        ev.count = rng.UniformInt(1, kMaxBufferFaults);
        break;
      case 1:
        ev.layer = ChaosLayer::kStoreTransient;
        if (rng.Bernoulli(kForeverOutageProbability)) {
          ev.count = -1;
        } else if (rng.Bernoulli(kOutageProbability)) {
          ev.count = kOutageCount;
        } else {
          ev.count = rng.UniformInt(1, kMaxTransientCount);
        }
        break;
      case 2:
        ev.layer = ChaosLayer::kStoreBitRot;
        break;
      case 3:
        ev.layer = ChaosLayer::kMemoryPressure;
        ev.count = rng.UniformInt(1, kMaxPressureSteps);
        ev.magnitude = rng.UniformDouble(0.25, kMaxPressureMagnitude);
        break;
      default:
        ev.layer = ChaosLayer::kWorkerStall;
        ev.count = rng.UniformInt(1, kMaxStallTasks);
        ev.magnitude = rng.UniformDouble(0, kMaxStallSeconds);
        break;
    }
    out.events.push_back(ev);
  }
  // Churn events draw from the same stream *after* the base events, so a
  // schedule with churn_events = 0 (the default) stays byte-identical to
  // every schedule generated before the churn layer existed.
  for (int i = 0; i < opts.churn_events; ++i) {
    ChaosEvent ev;
    ev.layer = ChaosLayer::kQueryChurn;
    ev.step = rng.UniformInt(1, std::max<int64_t>(opts.max_step, 1));
    ev.count = rng.UniformInt(0, std::max<int64_t>(opts.max_churn_arrivals, 0));
    ev.magnitude = static_cast<double>(
        rng.UniformInt(0, std::max<int64_t>(opts.max_churn_departures, 0)));
    if (ev.count == 0 && ev.magnitude == 0) ev.count = 1;  // never a no-op
    out.events.push_back(ev);
  }
  // Shard events draw last for the same byte-compat reason as churn.
  for (int i = 0; i < opts.shard_events; ++i) {
    ChaosEvent ev;
    ev.step = rng.UniformInt(1, std::max<int64_t>(opts.max_step, 1));
    ev.magnitude = static_cast<double>(
        rng.UniformInt(0, std::max<int64_t>(opts.num_shards_hint - 1, 0)));
    if (rng.Bernoulli(opts.shard_crash_probability)) {
      ev.layer = ChaosLayer::kShardCrash;
      ev.count = 1;
    } else {
      ev.layer = ChaosLayer::kShardStall;
      ev.count = rng.UniformInt(1, kMaxShardStallRounds);
    }
    out.events.push_back(ev);
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.step < b.step;
                   });
  return out;
}

ChaosInjector::ChaosInjector(FaultSchedule schedule, Targets targets)
    : schedule_(std::move(schedule)), targets_(targets) {
  std::stable_sort(schedule_.events.begin(), schedule_.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.step < b.step;
                   });
  // The source plan is realized at source construction, before any step;
  // log it so source-breaker trips have an injected cause to attach to.
  if (!schedule_.source_plan.empty()) {
    Record(0, ChaosLayer::kSourcePerturb, schedule_.source_plan.ToString());
  }
}

void ChaosInjector::Record(int64_t step, ChaosLayer layer,
                           std::string detail) {
  log_.push_back({step, layer, std::move(detail)});
  obs::Registry().GetCounter("chaos.fault.injected").Add(1);
}

bool ChaosInjector::AnyInjected(ChaosLayer layer, int64_t by_step) const {
  for (const InjectionRecord& r : log_) {
    if (r.layer == layer && r.step <= by_step) return true;
  }
  return false;
}

Status ChaosInjector::Apply(const ChaosEvent& ev) {
  switch (ev.layer) {
    case ChaosLayer::kSourcePerturb:
      // Carried by the FaultPlan, realized at source construction.
      break;
    case ChaosLayer::kBufferStorm: {
      if (targets_.source == nullptr) break;
      int armed = 0;
      for (const std::string& name : targets_.source->TableNames()) {
        DeltaBuffer* buf = targets_.source->buffer(name);
        if (buf == nullptr) continue;
        buf->InjectFault(
            Status::Unavailable("chaos: admission storm step " +
                                std::to_string(ev.step)),
            ev.count);
        ++armed;
      }
      if (armed > 0) {
        Record(ev.step, ev.layer,
               "base-buffer storm x" + std::to_string(ev.count) + " on " +
                   std::to_string(armed) + " tables");
      }
      break;
    }
    case ChaosLayer::kStoreTransient:
      if (targets_.store == nullptr) break;
      targets_.store->InjectWriteFault(
          Status::Unavailable("chaos: store outage step " +
                              std::to_string(ev.step)),
          ev.count);
      Record(ev.step, ev.layer,
             ev.count < 0 ? "store outage (forever)"
                          : "store outage x" + std::to_string(ev.count));
      break;
    case ChaosLayer::kStoreBitRot: {
      if (targets_.store == nullptr) break;
      std::vector<int64_t> epochs = targets_.store->CommittedEpochs();
      if (epochs.empty()) break;  // nothing committed yet: no rot to plant
      targets_.store->CorruptCommitted(epochs.back(),
                                       "chaos-bit-rot-garbage");
      Record(ev.step, ev.layer,
             "corrupted committed epoch " + std::to_string(epochs.back()));
      break;
    }
    case ChaosLayer::kMemoryPressure: {
      if (targets_.budget == nullptr) break;
      int64_t base = targets_.budget->limited()
                         ? targets_.budget->budget_bytes()
                         : int64_t{1} << 20;
      int64_t bytes =
          static_cast<int64_t>(ev.magnitude * static_cast<double>(base));
      if (bytes <= 0) break;
      spikes_.push_back({ev.step + ev.count - 1, bytes});
      Record(ev.step, ev.layer,
             "pressure spike " + std::to_string(bytes) + "B for " +
                 std::to_string(ev.count) + " steps");
      break;
    }
    case ChaosLayer::kWorkerStall:
      if (targets_.pool == nullptr) return Status::OK();
      targets_.pool->InjectDelay(ev.count, ev.magnitude);
      Record(ev.step, ev.layer,
             "stalled " + std::to_string(ev.count) + " tasks x" +
                 std::to_string(ev.magnitude) + "s");
      break;
    case ChaosLayer::kQueryChurn: {
      if (!targets_.churn) break;
      int arrivals = static_cast<int>(ev.count);
      int departures = static_cast<int>(ev.magnitude);
      // A churn sink must absorb pressure (defer, degrade) rather than
      // fail; a returned error is a real bug, so it propagates.
      ISHARE_RETURN_NOT_OK(targets_.churn(arrivals, departures));
      Record(ev.step, ev.layer,
             "churn +" + std::to_string(arrivals) + "/-" +
                 std::to_string(departures));
      break;
    }
    case ChaosLayer::kShardStall: {
      if (!targets_.shard_stall) break;
      int shard = static_cast<int>(ev.magnitude);
      ISHARE_RETURN_NOT_OK(targets_.shard_stall(shard, ev.count));
      Record(ev.step, ev.layer,
             "stalled shard " + std::to_string(shard) + " for " +
                 std::to_string(ev.count) + " rounds");
      break;
    }
    case ChaosLayer::kShardCrash: {
      if (!targets_.shard_crash) break;
      int shard = static_cast<int>(ev.magnitude);
      ISHARE_RETURN_NOT_OK(targets_.shard_crash(shard));
      Record(ev.step, ev.layer, "crashed shard " + std::to_string(shard));
      break;
    }
  }
  return Status::OK();
}

Status ChaosInjector::OnStepBoundary(int64_t completed) {
  const int64_t next_step = completed + 1;
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].step <= next_step) {
    ISHARE_RETURN_NOT_OK(Apply(schedule_.events[next_event_]));
    ++next_event_;
  }
  if (targets_.budget != nullptr) {
    // Retire spikes whose hold window ended with `completed`, then
    // publish the sum of the survivors as one absolute component.
    spikes_.erase(std::remove_if(spikes_.begin(), spikes_.end(),
                                 [completed](const PressureSpike& s) {
                                   return s.until_step <= completed;
                                 }),
                  spikes_.end());
    int64_t total = 0;
    for (const PressureSpike& s : spikes_) total += s.bytes;
    if (total > 0 && pressure_component_ < 0) {
      pressure_component_ = targets_.budget->Register("chaos:pressure");
    }
    if (pressure_component_ >= 0) {
      targets_.budget->Set(pressure_component_, total);
    }
  }
  return Status::OK();
}

}  // namespace ishare::chaos
