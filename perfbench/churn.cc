// churn: tenants arrive and depart while others share their plan. TPC-H
// sf 0.01 tenants drawn from a fixed query family run through ChurnRuntime
// at max_pace 12. Each window opens with two tenants; a schedule of
// ChaosLayer::kQueryChurn events then registers and deregisters tenants at
// pace boundaries. Every membership change re-merges the shared plan,
// carries or rebuilds subplans and replays the rebuilt ones from offset 0;
// steady steps between changes only read.
//
// Every window runs the same schedule, so windows are comparable and the
// run's median is steady; the seed picks the dataset.
//
// Output check: each survivor's result must equal a fresh full-stream run
// of its query, and each departed tenant's drained result must equal a
// fresh run over the stream prefix it had seen.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "ishare/chaos/fault_schedule.h"
#include "ishare/churn/churn_runtime.h"
#include "ishare/harness/churn_harness.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"

namespace perfbench {

using namespace ishare;

namespace {

constexpr double kScaleFactor = 0.01;
constexpr int kMaxPace = 12;
constexpr int kFamily[] = {3, 5, 8, 9, 10, 12};
constexpr int kFamilySize = sizeof(kFamily) / sizeof(kFamily[0]);

// The membership changes of every window as {step, arrivals, departures}:
// arrivals early, mixed churn mid-window, departures late. Each lands at
// the boundary after its step.
constexpr int kChurn[][3] = {{2, 2, 0}, {3, 1, 1}, {5, 2, 1},
                             {7, 1, 2}, {9, 1, 1}, {10, 0, 1}};

QueryPlan FamilyQuery(const Catalog& catalog, QueryId q) {
  return TpchQuery(catalog, kFamily[q % kFamilySize], q);
}

chaos::FaultSchedule Schedule() {
  chaos::FaultSchedule s;
  for (const auto& [step, arrivals, departures] : kChurn) {
    s.events.push_back({chaos::ChaosLayer::kQueryChurn, step, arrivals,
                        static_cast<double>(departures)});
  }
  return s;
}

// One window's runtime, built before the window's timer starts.
struct Engine {
  Engine(const TpchDb& db, churn::QueryProvider provider) {
    CHECK(db.source.CloneTablesInto(&source).ok());
    rt = std::make_unique<churn::ChurnRuntime>(&db.catalog, &source,
                                               std::move(provider));
    CHECK(rt->Register(0, 1e18).ok());
    CHECK(rt->Register(1, 1e18).ok());
  }

  StreamSource source;
  std::unique_ptr<churn::ChurnRuntime> rt;
};

struct Window {
  Status status;
  double window_s = 0;
  double trigger_s = 0;
};

// Runs one window under `schedule`. Steps that switched the membership
// epoch are timed into `epoch_steps`, the others into `steady_steps`.
Window RunWindow(Engine* e, const chaos::FaultSchedule& schedule,
                 Samples* epoch_steps, Samples* steady_steps) {
  chaos::ChaosInjector::Targets targets;
  churn::ChurnRuntime* rt = e->rt.get();
  targets.churn = [rt](int arrivals, int departures) {
    return rt->InjectChurn(arrivals, departures);
  };
  chaos::ChaosInjector injector(schedule, targets);
  Window w;
  Stopwatch sw;
  Status st = rt->BeginWindow(kMaxPace);
  if (st.ok()) st = injector.OnStepBoundary(0);
  while (st.ok() && rt->HasPendingSteps()) {
    int64_t epoch = rt->epoch();
    Stopwatch step;
    st = rt->RunStep();
    w.trigger_s = step.Seconds();
    (rt->epoch() != epoch ? epoch_steps : steady_steps)->Add(w.trigger_s);
    if (st.ok()) st = injector.OnStepBoundary(rt->exec()->completed_steps());
  }
  if (st.ok()) st = rt->FinishWindow().status();
  w.window_s = sw.Seconds();
  w.status = st;
  return w;
}

// Fresh single-query references, shared by every tenant running the same
// family member over the same stream prefix.
class References {
 public:
  References(const TpchDb& db, churn::QueryProvider provider)
      : db_(db), provider_(std::move(provider)) {}

  const ResultMap* Get(QueryId q, int64_t num, int64_t den) {
    auto key = std::make_tuple(q % kFamilySize, num, den);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      auto r = ChurnReferenceResult(&db_.catalog, provider_, q, db_.source,
                                    num, den, ExecOptions());
      if (!r.ok()) return nullptr;
      it = cache_.emplace(key, std::move(r).value()).first;
    }
    return &it->second;
  }

 private:
  const TpchDb& db_;
  churn::QueryProvider provider_;
  std::map<std::tuple<int, int64_t, int64_t>, ResultMap> cache_;
};

}  // namespace

void RunChurn(Outcome* out) {
  const Config& cfg = out->config();
  LayerSamples layer;
  // Steps are timed from outside in every window, so a traced window runs
  // exactly like an untraced one: every window of a traced run is traced
  // and trace.overhead is not measured. Steps are split by whether they
  // switched epoch.
  WindowLoop loop(out, "churn", 1);
  std::unique_ptr<TpchDb> db;
  std::unique_ptr<Engine> engine;
  churn::QueryProvider provider;
  loop.Setup(
      [&] {
        engine.reset();
        db.reset();
      },
      [&] {
        Stopwatch gen;
        db = std::make_unique<TpchDb>(TpchScale{kScaleFactor, cfg.seed});
        if (cfg.trace) layer.Add("workload.gen_s", gen.Seconds(), "s");
        provider = [d = db.get()](QueryId q) {
          return FamilyQuery(d->catalog, q);
        };
        engine = std::make_unique<Engine>(*db, provider);
      });
  const chaos::FaultSchedule schedule = Schedule();

  Samples epoch_steps, steady_steps, warmup_steps;
  double total_work = 0;
  // What each of the first window's results is: a query and the stream
  // prefix (num/den) it saw; 1/1 for survivors.
  std::vector<std::tuple<QueryId, int64_t, int64_t>> result_keys;
  while (loop.Next()) {
    if (engine == nullptr) engine = std::make_unique<Engine>(*db, provider);
    const bool warmup = loop.window() < 0;
    ObsDelta obs;
    Window win = RunWindow(engine.get(), schedule,
                           warmup ? &warmup_steps : &epoch_steps,
                           warmup ? &warmup_steps : &steady_steps);
    obs.Finish();
    if (!loop.Check(win.status)) {
      engine.reset();
      continue;
    }
    const churn::ChurnRuntime& rt = *engine->rt;
    const churn::ChurnStats& st = rt.stats();
    // The run result covers only the last epoch; the engine's own work and
    // execution counters cover every epoch and the quiesce runs.
    double work = obs.Counter("exec.subplan.work");
    total_work = work;
    out->Guard("total_work", work);
    out->Guard("exec.executions", obs.Counter("exec.subplan.executions"));
    out->Guard("churn.epochs", static_cast<double>(rt.epoch()));
    loop.Time(win.window_s, win.trigger_s);
    if (loop.traced()) {
      int64_t moved = st.subplans_carried + st.subplans_rebuilt;
      layer.Add("churn.carry_ratio",
                moved > 0 ? static_cast<double>(st.subplans_carried) /
                                static_cast<double>(moved)
                          : 0.0,
                "ratio");
      layer.Add("churn.epochs", static_cast<double>(rt.epoch()), "count");
      layer.Add("churn.registrations", static_cast<double>(st.registrations),
                "count");
      layer.Add("churn.deregistrations",
                static_cast<double>(st.deregistrations), "count");
      layer.Add("churn.deferrals", static_cast<double>(st.deferrals), "count");
      layer.Add("churn.quiesce_work", st.quiesce_work, "work");
      layer.Add("exec.executions", obs.Counter("exec.subplan.executions"),
                "count");
      layer.Add("exec.work_per_s", work / win.window_s, "work/s");
      layer.Add("cost.estimate_calls", obs.Counter("cost.estimate.calls"),
                "count");
      double hits = obs.Counter("cost.memo.hit");
      double lookups = hits + obs.Counter("cost.memo.miss");
      layer.Add("cost.memo_hit_ratio", lookups > 0 ? hits / lookups : 0,
                "ratio");
      layer.Add("opt.pace_search_iterations",
                obs.Counter("opt.pace_search.iterations"), "count");
      layer.Add("opt.pace_search_s", obs.SpanSeconds("opt.pace_search.run"),
                "s");
      layer.Add("storage.trimmed_tuples", obs.Counter("flow.trim.tuples"),
                "count");
    }

    // Departed tenants' drained results, then the survivors'.
    std::vector<ResultMap> got;
    std::vector<std::tuple<QueryId, int64_t, int64_t>> keys;
    for (QueryId q : rt.departed_queries()) {
      Fraction f = rt.DepartureFraction(q);
      auto r = rt.DrainedResult(q);
      got.push_back(r.ok() ? std::move(r).value() : ResultMap());
      keys.emplace_back(q, f.num, f.den);
    }
    for (QueryId q : rt.live_queries().ToIds()) {
      auto r = rt.LiveResult(q);
      got.push_back(r.ok() ? std::move(r).value() : ResultMap());
      keys.emplace_back(q, 1, 1);
    }
    if (warmup) {
      result_keys = std::move(keys);
    } else if (keys != result_keys) {
      out->Attempt(false, loop.Name() + " ran another membership schedule "
                                        "than the first window");
    }
    loop.Compare(std::move(got));
    engine.reset();
  }

  // Output check: survivors against fresh full-stream runs, departed
  // tenants against fresh runs over the stream prefix they saw.
  References refs(*db, provider);
  for (size_t i = 0; i < loop.first().size() && i < result_keys.size(); ++i) {
    const auto& [q, num, den] = result_keys[i];
    const ResultMap* ref = refs.Get(q, num, den);
    out->Attempt(ref != nullptr && SameResult(loop.first()[i], *ref),
                 "churn query " + std::to_string(q) + " differs from its " +
                     std::to_string(num) + "/" + std::to_string(den) +
                     "-prefix reference");
  }
  const ResultMap* probe = refs.Get(0, 1, 1);
  if (probe != nullptr) SelfTestChecker(*probe, out);

  if (cfg.trace) {
    out->Timing("churn.epoch_step_s", epoch_steps);
    out->Set("churn.epoch_step_tail_s", epoch_steps.Tail(), "s");
    out->Timing("churn.steady_step_s", steady_steps);
  }
  loop.Report(WindowTuples(db->source), total_work, &layer);
}

}  // namespace perfbench
