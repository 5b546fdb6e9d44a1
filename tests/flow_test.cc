// Flow-control suite (DESIGN.md §9):
//  - MemoryBudget arbiter units (registration, absolute publishing, peaks,
//    track-only mode, headroom grants, peak resets),
//  - the pure shedding policy (ShedOrder ranking, ShedQuota ramp and its
//    prefix property),
//  - the retry/backpressure boundary: kResourceExhausted never burns the
//    storage-fault retry budget,
//  - adaptive drop accounting: arrived == admitted + dropped, protective
//    subplans are never dropped from,
//  - the defer-only property: across 100+ seeded fault-plan x budget
//    combinations, a bounded run with drops disabled produces bit-exact
//    results versus an unbounded run — deferral moves work, never answers,
//  - the static-schedule contract: an executor without an estimator runs
//    exactly its pace configuration under bursts and a limited budget,
//    where the estimator-driven executor defers,
//  - the policy knobs: boundary trimming off, the deferral start pressure
//    and the drop target each change what the run does.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/flow/shedding.h"
#include "ishare/recovery/retry.h"
#include "ishare/storage/perturbed_source.h"
#include "test_util.h"

namespace ishare {
namespace {

// ---------------------------------------------------------------------------
// MemoryBudget arbiter
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, TracksComponentsUsedAndPeaks) {
  flow::MemoryBudget mb(1000);
  int a = mb.Register("buf:subplan_0");
  int b = mb.Register("state:subplan_0");
  EXPECT_EQ(mb.num_components(), 2);
  EXPECT_EQ(mb.component_name(a), "buf:subplan_0");
  EXPECT_EQ(mb.used(), 0);

  mb.Set(a, 300);
  mb.Set(b, 200);
  EXPECT_EQ(mb.used(), 500);
  EXPECT_EQ(mb.peak(), 500);

  // Publishing is absolute: shrinking a component lowers used() but the
  // peaks stay at their high-water marks.
  mb.Set(a, 100);
  EXPECT_EQ(mb.used(), 300);
  EXPECT_EQ(mb.peak(), 500);
  EXPECT_EQ(mb.component_bytes(a), 100);
  EXPECT_EQ(mb.component_peak(a), 300);

  mb.Add(b, 50);
  EXPECT_EQ(mb.component_bytes(b), 250);
  EXPECT_EQ(mb.used(), 350);
  EXPECT_FALSE(mb.OverBudget());
  EXPECT_NEAR(mb.Pressure(), 0.35, 1e-12);

  mb.Set(a, 900);
  EXPECT_TRUE(mb.OverBudget());
  EXPECT_GT(mb.Pressure(), 1.0);
}

TEST(MemoryBudgetTest, TrackOnlyModeIsNeverOverBudget) {
  // Budget <= 0 is how baseline passes measure their working set: full
  // accounting, no pressure, every headroom grant succeeds.
  flow::MemoryBudget mb(0);
  int a = mb.Register("buf:subplan_0");
  mb.Set(a, int64_t{1} << 40);
  EXPECT_FALSE(mb.limited());
  EXPECT_FALSE(mb.OverBudget());
  EXPECT_EQ(mb.Pressure(), 0.0);
  EXPECT_TRUE(mb.GrantHeadroom(int64_t{1} << 50).ok());
  EXPECT_EQ(mb.peak(), int64_t{1} << 40);
}

TEST(MemoryBudgetTest, GrantHeadroomIsAdvisoryBackpressure) {
  flow::MemoryBudget mb(100);
  int a = mb.Register("x");
  mb.Set(a, 60);
  EXPECT_TRUE(mb.GrantHeadroom(40).ok());  // exactly fits
  Status denied = mb.GrantHeadroom(41);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(denied.IsRetryableBackpressure());
  EXPECT_FALSE(denied.IsTransient());
  // A denial changes nothing: the grant is advisory, not a reservation.
  EXPECT_EQ(mb.used(), 60);
  EXPECT_TRUE(mb.GrantHeadroom(40).ok());
}

TEST(MemoryBudgetTest, ResetPeaksDropsToCurrentUsage) {
  flow::MemoryBudget mb(0);
  int a = mb.Register("x");
  mb.Set(a, 500);
  mb.Set(a, 100);
  EXPECT_EQ(mb.peak(), 500);
  mb.ResetPeaks();
  EXPECT_EQ(mb.peak(), 100);
  EXPECT_EQ(mb.component_peak(a), 100);
}

TEST(FlowStatsTest, ShedTotalToleratesShortVectors) {
  flow::FlowStats fs;
  fs.query_deferred = {3};
  fs.query_dropped = {1, 7};
  EXPECT_EQ(fs.shed_total(0), 4);
  EXPECT_EQ(fs.shed_total(1), 7);  // deferred vector too short -> 0
  EXPECT_EQ(fs.shed_total(9), 0);  // both too short
}

// ---------------------------------------------------------------------------
// Shedding policy (pure functions)
// ---------------------------------------------------------------------------

TEST(ShedPolicyTest, OrderIsDescendingSlackTiesByAscendingId) {
  std::vector<double> slack = {0.2, 0.9, 0.9, 0.0, 0.5};
  std::vector<bool> sheddable = {true, true, true, false, true};
  std::vector<int> order = flow::ShedOrder(slack, sheddable);
  // Protective subplan 3 never appears; equal slacks keep id order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 0}));

  // Nothing sheddable -> empty order.
  EXPECT_TRUE(
      flow::ShedOrder({0.5, 0.5}, {false, false}).empty());
}

TEST(ShedPolicyTest, QuotaRampsLinearlyFromStartToFull) {
  const double start = 0.7;
  const int n = 10;
  EXPECT_EQ(flow::ShedQuota(0.0, start, n), 0);
  EXPECT_EQ(flow::ShedQuota(0.69, start, n), 0);
  EXPECT_EQ(flow::ShedQuota(1.0, start, n), n);
  EXPECT_EQ(flow::ShedQuota(2.5, start, n), n);   // pressure may exceed 1
  EXPECT_EQ(flow::ShedQuota(0.85, start, n), 5);  // halfway up the ramp
  EXPECT_EQ(flow::ShedQuota(0.5, start, 0), 0);   // nothing to shed

  // Degenerate start degrades to all-or-nothing at pressure >= 1.
  for (double s : {0.0, -0.5, 1.0, 1.5}) {
    EXPECT_EQ(flow::ShedQuota(0.99, s, n), 0) << s;
    EXPECT_EQ(flow::ShedQuota(1.0, s, n), n) << s;
  }
}

TEST(ShedPolicyTest, QuotaIsMonotoneInPressure) {
  // The prefix property the overload bench gates on: rising pressure can
  // only extend the shed set, never swap a slacker subplan out for a
  // less-slack one. Monotone quota + fixed descending order implies it.
  const double start = 0.7;
  for (int n : {1, 3, 7, 16}) {
    int prev = 0;
    for (int i = 0; i <= 200; ++i) {
      int q = flow::ShedQuota(i / 100.0, start, n);
      EXPECT_GE(q, prev) << "pressure " << i / 100.0 << " n " << n;
      EXPECT_LE(q, n);
      prev = q;
    }
  }
}

// ---------------------------------------------------------------------------
// Retry/backpressure boundary
// ---------------------------------------------------------------------------

TEST(RetryBoundaryTest, BackpressureNeverBurnsTheRetryBudget) {
  int calls = 0;
  int attempts = 0;
  double backoff = 0;
  Status st = recovery::RetryTransient(
      [&] {
        ++calls;
        return Status::ResourceExhausted("buffer over high watermark");
      },
      &attempts, &backoff);
  // kResourceExhausted is backpressure, not a transient storage fault:
  // it propagates on the first attempt with zero virtual backoff, and the
  // flow layer turns it into a deferral instead.
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(backoff, 0.0);

  // Contrast: kUnavailable exhausts the whole attempt budget.
  calls = 0;
  st = recovery::RetryTransient(
      [&] {
        ++calls;
        return Status::Unavailable("partition handoff");
      },
      &attempts, &backoff);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, recovery::kMaxAttempts);
  EXPECT_GT(backoff, 0.0);
}

// ---------------------------------------------------------------------------
// Adaptive shedding: accounting and the defer-only bit-exactness property
// ---------------------------------------------------------------------------

// Integer-only single-table workload so bounded-vs-unbounded comparisons
// can demand bit equality (no float accumulation order effects). Two
// queries with separate roots: q0 gets a tiny constraint (zero slack,
// protective), q1 a huge one (full slack, first to shed).
struct ShedDb {
  ShedDb() {
    Schema s({{"id", DataType::kInt64}, {"cat", DataType::kInt64}});
    CHECK(catalog.AddTable("t", s, TableStats()).ok());
    for (int64_t i = 0; i < 90; ++i) {
      rows.push_back({Value(i), Value(i % 7)});
    }
    PlanBuilder b0(&catalog, 0);
    queries.push_back({0, "tight",
                       b0.Aggregate(b0.ScanFiltered("t", nullptr), {"cat"},
                                    {CountAgg("n")})});
    PlanBuilder b1(&catalog, 1);
    queries.push_back({1, "slack",
                       b1.Aggregate(b1.ScanFiltered("t", nullptr), {},
                                    {CountAgg("n")})});
    graph = SubplanGraph::Build(queries);
  }

  Catalog catalog;
  std::vector<Row> rows;
  std::vector<QueryPlan> queries;
  SubplanGraph graph;
  Schema schema() const { return catalog.GetSchema("t"); }
};

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

::testing::AssertionResult ExactlyEqual(const ResultMap& a,
                                        const ResultMap& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  for (const auto& [row, mult] : a) {
    auto it = b.find(row);
    if (it == b.end()) {
      return ::testing::AssertionFailure()
             << "missing row " << RowToString(row);
    }
    if (it->second != mult) {
      return ::testing::AssertionFailure()
             << "multiplicity differs for " << RowToString(row) << ": "
             << mult << " vs " << it->second;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(AdaptiveShedding, DropAccountingBalancesAndSparesProtective) {
  ShedDb db;
  CostEstimator est(&db.graph, &db.catalog);

  // A 1-byte budget keeps pressure far above the drop target at every
  // step, so the drop pass fires continuously on the sheddable side.
  flow::MemoryBudget budget(1);
  ExecOptions opts;
  opts.flow.budget = &budget;
  AdaptivePolicy policy;
  policy.enable_shed_drop = true;

  StreamSource src;
  src.AddTable("t", db.schema(), db.rows);
  AdaptiveExecutor exec(&est, &src, {1e-6, 1e18}, policy, opts);
  auto r = exec.Run(PaceConfig(db.graph.num_subplans(), 5));
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Drops happened and every one is accounted per event and per query.
  EXPECT_GT(r->flow.dropped_tuples, 0);
  int64_t logged = 0;
  for (const ShedDropEvent& e : r->drop_log) {
    logged += e.tuples;
    EXPECT_FALSE(exec.subplan_protective(e.subplan)) << e.subplan;
    EXPECT_GT(e.tuples, 0);
  }
  EXPECT_EQ(logged, r->flow.dropped_tuples);

  // The accounting identity: every leaf tuple the engine took
  // responsibility for was either processed or discarded with a record.
  EXPECT_EQ(exec.ConsumedInput(),
            r->flow.admitted_tuples + r->flow.dropped_tuples);

  // The zero-slack query is protective: nothing of its input was dropped,
  // and its result still exactly matches a clean batch run.
  ASSERT_EQ(r->flow.query_dropped.size(), 2u);
  EXPECT_EQ(r->flow.query_dropped[0], 0);
  EXPECT_GT(r->flow.query_dropped[1], 0);

  StreamSource clean;
  clean.AddTable("t", db.schema(), db.rows);
  AdaptiveExecutor batch(&db.graph, &clean);
  ASSERT_TRUE(batch.Run(PaceConfig(db.graph.num_subplans(), 1)).ok());
  EXPECT_TRUE(ExactlyEqual(MaterializeResult(*exec.query_output(0), 0),
                           MaterializeResult(*batch.query_output(0), 0)));
}

TEST(AdaptiveShedding, DeferOnlyBoundedRunsAreBitExact) {
  // The property satellite: 36 fault-plan seeds x 3 budgets = 108 seeded
  // burst/budget combinations. With drops disabled, a bounded run may
  // defer and backpressure as much as it likes — the trigger execution
  // covers all remaining input, so materialized results must be
  // bit-identical to the unbounded run's. Budgets span "absurdly tight"
  // (every step sheds everything sheddable) through "tight" to "roomy".
  ShedDb db;
  CostEstimator est(&db.graph, &db.catalog);
  const std::vector<int64_t> budgets = {1, 2048, int64_t{1} << 20};

  for (uint64_t seed = 1; seed <= 36; ++seed) {
    FaultPlan plan = FaultPlan::Random(seed, 3, {"t"});
    ASSERT_TRUE(plan.Validate().ok()) << plan.ToString();

    // Unbounded reference for this fault plan.
    PerturbedStreamSource ref_src(plan);
    ref_src.AddTable("t", db.schema(), db.rows);
    AdaptiveExecutor ref(&est, &ref_src, {1e-6, 1e18});
    ASSERT_TRUE(ref.Run(PaceConfig(db.graph.num_subplans(), 6)).ok())
        << plan.ToString();
    ResultMap ref0 = MaterializeResult(*ref.query_output(0), 0);
    ResultMap ref1 = MaterializeResult(*ref.query_output(1), 1);

    for (int64_t budget_bytes : budgets) {
      flow::MemoryBudget budget(budget_bytes);
      ExecOptions opts;
      opts.flow.budget = &budget;
      opts.flow.buffer_soft_limit_bytes = budget_bytes / 2;
      AdaptivePolicy policy;
      policy.enable_shed_drop = false;  // defer-only: answers are sacred

      PerturbedStreamSource src(plan);  // same seed -> identical stream
      src.AddTable("t", db.schema(), db.rows);
      AdaptiveExecutor exec(&est, &src, {1e-6, 1e18}, policy, opts);
      auto r = exec.Run(PaceConfig(db.graph.num_subplans(), 6));
      ASSERT_TRUE(r.ok()) << r.status().ToString() << " budget "
                          << budget_bytes << " " << plan.ToString();
      EXPECT_EQ(r->flow.dropped_tuples, 0);
      EXPECT_TRUE(r->drop_log.empty());
      EXPECT_EQ(exec.ConsumedInput(), r->flow.admitted_tuples);

      EXPECT_TRUE(ExactlyEqual(MaterializeResult(*exec.query_output(0), 0),
                               ref0))
          << "q0 seed " << seed << " budget " << budget_bytes;
      EXPECT_TRUE(ExactlyEqual(MaterializeResult(*exec.query_output(1), 1),
                               ref1))
          << "q1 seed " << seed << " budget " << budget_bytes;
    }
  }
}

// ---------------------------------------------------------------------------
// The static-schedule contract
// ---------------------------------------------------------------------------

TEST(StaticScheduleContract, RunsExactlyThePacesUnderBurstsAndPressure) {
  // Without an estimator the executor adapts nothing, whatever the stream
  // and the budget do: every subplan runs at exactly {1/p, ..., 1} — no
  // skips, catch-ups, re-derivations, deferrals, backpressure or drops —
  // with and without a worker pool.
  ShedDb db;
  FaultPlan plan;
  plan.seed = 7;
  plan.events = {{FaultEvent::Kind::kBurst, 0.2, 0, 0.4, ""},
                 {FaultEvent::Kind::kStall, 0.5, 0.3, 0, ""}};
  ASSERT_TRUE(plan.Validate().ok());
  PaceConfig paces(db.graph.num_subplans());
  for (size_t s = 0; s < paces.size(); ++s) paces[s] = s % 2 == 0 ? 6 : 4;

  // The unbounded run's peak sets the pressure: the limited budget below
  // holds a quarter of it, and output buffers refuse admission well
  // before that.
  int64_t peak = 0;
  {
    flow::MemoryBudget track;
    ExecOptions opts;
    opts.flow.budget = &track;
    PerturbedStreamSource src(plan);
    src.AddTable("t", db.schema(), db.rows);
    AdaptiveExecutor exec(&db.graph, &src, opts);
    ASSERT_TRUE(exec.Run(paces).ok());
    peak = track.peak();
  }
  ASSERT_GT(peak, 0);
  const int64_t budget_bytes = peak / 4;

  for (int threads : {1, 4}) {
    flow::MemoryBudget budget(budget_bytes);
    ExecOptions opts;
    opts.flow.budget = &budget;
    opts.flow.buffer_soft_limit_bytes = budget_bytes / 2;
    opts.sched.num_threads = threads;
    PerturbedStreamSource src(plan);
    src.AddTable("t", db.schema(), db.rows);
    AdaptiveExecutor exec(&db.graph, &src, opts);
    EXPECT_EQ(exec.worker_pool() != nullptr, threads > 1);
    Result<AdaptiveRunResult> r = exec.Run(paces);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(budget.peak(), budget_bytes) << "threads " << threads;

    for (int s = 0; s < db.graph.num_subplans(); ++s) {
      std::vector<double> expected;
      for (int i = 1; i <= paces[s]; ++i) {
        expected.push_back(static_cast<double>(i) / paces[s]);
      }
      EXPECT_EQ(r->run.subplans[s].exec_fraction, expected)
          << "subplan " << s << " threads " << threads;
    }
    EXPECT_EQ(r->stats.rederivations, 0);
    EXPECT_EQ(r->stats.skipped_execs, 0);
    EXPECT_EQ(r->stats.catchup_execs, 0);
    EXPECT_EQ(r->stats.pace_history, std::vector<PaceConfig>{paces});
    EXPECT_EQ(r->flow.shed_deferred, 0);
    EXPECT_EQ(r->flow.backpressure_events, 0);
    EXPECT_EQ(r->flow.dropped_tuples, 0);
    EXPECT_TRUE(r->drop_log.empty());
  }

  // Not vacuous: the estimator-driven executor defers on the same input
  // under the same budget.
  CostEstimator est(&db.graph, &db.catalog);
  flow::MemoryBudget budget(budget_bytes);
  ExecOptions opts;
  opts.flow.budget = &budget;
  opts.flow.buffer_soft_limit_bytes = budget_bytes / 2;
  PerturbedStreamSource src(plan);
  src.AddTable("t", db.schema(), db.rows);
  AdaptiveExecutor adaptive(&est, &src, {1e-6, 1e18}, AdaptivePolicy(), opts);
  Result<AdaptiveRunResult> r = adaptive.Run(paces);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->flow.shed_deferred, 0);
}

// ---------------------------------------------------------------------------
// Policy knobs
// ---------------------------------------------------------------------------

TEST(FlowKnobs, TrimAtBoundariesOffTrimsNothing) {
  // ShedDb's two queries over one shared scan: the scan's output buffer
  // is the graph's non-root buffer.
  ShedDb db;
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "t", both);
  SubplanGraph g = SubplanGraph::Build(
      {QueryPlan{0, "tight",
                 PlanNode::MakeAggregate(scan, {"cat"}, {CountAgg("n")},
                                         QuerySet::Single(0))},
       QueryPlan{1, "slack",
                 PlanNode::MakeAggregate(scan, {}, {CountAgg("n")},
                                         QuerySet::Single(1))}});
  ASSERT_EQ(g.num_subplans(), 3);
  int shared = 0;
  while (shared == g.query_root(0) || shared == g.query_root(1)) ++shared;
  PaceConfig paces(3, 2);
  paces[static_cast<size_t>(shared)] = 4;

  struct Outcome {
    ResultMap q0, q1;
    double work = 0;
    flow::FlowStats flow;
    int64_t base_trimmed = 0;
    int64_t shared_trimmed = 0;
  };
  auto run = [&](bool trim) {
    ExecOptions opts;
    opts.flow.trim_at_boundaries = trim;
    StreamSource src;
    src.AddTable("t", db.schema(), db.rows);
    AdaptiveExecutor exec(&g, &src, opts);
    AdaptiveRunResult r = exec.Run(paces).value();
    Outcome out;
    out.q0 = MaterializeResult(*exec.query_output(0), 0);
    out.q1 = MaterializeResult(*exec.query_output(1), 1);
    out.work = r.run.total_work;
    out.flow = r.flow;
    out.base_trimmed = src.buffer("t")->trimmed();
    out.shared_trimmed = exec.subplan_output(shared)->trimmed();
    return out;
  };
  Outcome on = run(true);
  Outcome off = run(false);

  // Not vacuous: by default both kinds of buffer are trimmed.
  EXPECT_GT(on.flow.trims, 0);
  EXPECT_GT(on.base_trimmed, 0);
  EXPECT_GT(on.shared_trimmed, 0);

  EXPECT_EQ(off.flow.trims, 0);
  EXPECT_EQ(off.flow.trimmed_tuples, 0);
  EXPECT_EQ(off.base_trimmed, 0);
  EXPECT_EQ(off.shared_trimmed, 0);
  EXPECT_EQ(off.work, on.work);
  EXPECT_TRUE(ExactlyEqual(off.q0, on.q0));
  EXPECT_TRUE(ExactlyEqual(off.q1, on.q1));
}

// One estimator-driven ShedDb run at pace 6 under a `budget_bytes`
// budget (<= 0: track only).
struct BudgetedRun {
  flow::FlowStats flow;
  int64_t peak_bytes = 0;
  double peak_pressure = 0;  // peak bytes / budget; 0 when track-only
};

BudgetedRun RunBudgeted(const ShedDb& db, int64_t budget_bytes,
                        const AdaptivePolicy& policy) {
  CostEstimator est(&db.graph, &db.catalog);
  flow::MemoryBudget budget(budget_bytes);
  ExecOptions opts;
  opts.flow.budget = &budget;
  StreamSource src;
  src.AddTable("t", db.schema(), db.rows);
  AdaptiveExecutor exec(&est, &src, {1e-6, 1e18}, policy, opts);
  BudgetedRun out;
  out.flow = exec.Run(PaceConfig(db.graph.num_subplans(), 6)).value().flow;
  out.peak_bytes = budget.peak();
  if (budget.limited()) {
    out.peak_pressure = static_cast<double>(budget.peak()) /
                        static_cast<double>(budget_bytes);
  }
  return out;
}

TEST(FlowKnobs, ShedPressureStartGatesDeferral) {
  ShedDb db;
  const int64_t peak = RunBudgeted(db, 0, AdaptivePolicy()).peak_bytes;
  ASSERT_GT(peak, 0);
  // Four times the unbounded peak: pressure stays at or below 0.25 and
  // every headroom request fits.
  const int64_t budget_bytes = 4 * peak;

  AdaptivePolicy late;
  late.shed_pressure_start = 0.5;
  BudgetedRun quiet = RunBudgeted(db, budget_bytes, late);
  ASSERT_LT(quiet.peak_pressure, late.shed_pressure_start);
  EXPECT_EQ(quiet.flow.shed_deferred, 0);

  AdaptivePolicy early;
  early.shed_pressure_start = 0.001;
  ASSERT_GT(quiet.peak_pressure, early.shed_pressure_start);
  BudgetedRun deferring = RunBudgeted(db, budget_bytes, early);
  EXPECT_GT(deferring.flow.shed_deferred, 0);
  EXPECT_EQ(deferring.flow.dropped_tuples, 0);
}

TEST(FlowKnobs, DropPressureTargetGatesDrops) {
  ShedDb db;
  const int64_t peak = RunBudgeted(db, 0, AdaptivePolicy()).peak_bytes;
  ASSERT_GT(peak, 0);
  const int64_t budget_bytes = 4 * peak;

  AdaptivePolicy high;
  high.enable_shed_drop = true;
  high.drop_pressure_target = 0.5;
  BudgetedRun kept = RunBudgeted(db, budget_bytes, high);
  ASSERT_LT(kept.peak_pressure, high.drop_pressure_target);
  EXPECT_EQ(kept.flow.dropped_tuples, 0);

  AdaptivePolicy low = high;
  low.drop_pressure_target = 0.001;
  ASSERT_GT(kept.peak_pressure, low.drop_pressure_target);
  BudgetedRun dropping = RunBudgeted(db, budget_bytes, low);
  EXPECT_GT(dropping.flow.dropped_tuples, 0);
}

}  // namespace
}  // namespace ishare
