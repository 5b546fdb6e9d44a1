// Robustness suite:
//  - the recoverable error spine (Status instead of aborts on bad consumer
//    ids, backwards/NaN fractions, pace misconfiguration, poisoned buffers),
//  - exact release targets at pace boundaries (paces 3, 7, 11),
//  - the fault-injecting PerturbedStreamSource (determinism, monotonicity,
//    trigger completeness),
//  - the adaptive executor's correctness invariance: results match batch
//    execution under random fault plans and pace configurations.

#include <gtest/gtest.h>

#include <algorithm>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/opt/approaches.h"
#include "ishare/storage/perturbed_source.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

Schema OneCol() { return Schema({{"x", DataType::kInt64}}); }

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value(int64_t{i})});
  return rows;
}

// ---------------------------------------------------------------------------
// Recoverable error spine
// ---------------------------------------------------------------------------

TEST(ErrorSpine, BadConsumerIdReturnsInvalidArgument) {
  DeltaBuffer buf(OneCol(), "t");
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  auto r = buf.ConsumeNew(5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Out-of-range consumer ids surface as errors from the inspection
  // accessors too, instead of a -1 sentinel callers could miss.
  EXPECT_EQ(buf.ConsumerOffset(5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buf.Pending(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorSpine, NegativeConsumeLimitReturnsInvalidArgument) {
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  auto r = buf.ConsumeUpTo(c, -1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The failed consume must not have advanced the offset.
  EXPECT_EQ(buf.Pending(c).value(), 1);
}

TEST(ErrorSpine, InjectedFaultSurfacesAndClears) {
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  buf.InjectFault(Status::Internal("poisoned partition"));
  auto r = buf.ConsumeNew(c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  buf.ClearFault();
  EXPECT_EQ(buf.ConsumeNew(c).value().size(), 1u);
}

TEST(ErrorSpine, StreamSourceRejectsBadFractions) {
  StreamSource src;
  src.AddTable("t", OneCol(), MakeRows(10));
  ASSERT_TRUE(src.AdvanceToStep(1, 2).ok());
  // Backwards advancement is a contract violation, not a crash.
  EXPECT_EQ(src.AdvanceToStep(1, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(src.AdvanceToStep(0, 1).code(), StatusCode::kInvalidArgument);
  // The failed calls released nothing extra.
  EXPECT_EQ(src.buffer("t")->size(), 5);
  // The same point again is not backwards.
  EXPECT_TRUE(src.AdvanceToStep(2, 4).ok());
  EXPECT_EQ(src.buffer("t")->size(), 5);
}

TEST(ErrorSpine, StreamSourceRejectsBadSteps) {
  StreamSource src;
  src.AddTable("t", OneCol(), MakeRows(10));
  EXPECT_EQ(src.AdvanceToStep(1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(src.AdvanceToStep(-1, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(src.AdvanceToStep(4, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(src.AdvanceToStep(1, 3).ok());
}

TEST(ErrorSpine, DuplicateAndUnknownTablesReturnSentinels) {
  StreamSource src;
  EXPECT_NE(src.AddTable("t", OneCol(), MakeRows(3)), nullptr);
  EXPECT_EQ(src.AddTable("t", OneCol(), MakeRows(3)), nullptr);
  EXPECT_EQ(src.buffer("nope"), nullptr);
  EXPECT_EQ(src.TotalRows("nope"), -1);
}

TEST(ErrorSpine, PaceValidationReturnsStatus) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "count",
              b.Aggregate(b.ScanFiltered("orders", nullptr), {},
                          {CountAgg("n")})};
  SubplanGraph g = SubplanGraph::Build({q});
  AdaptiveExecutor exec(&g, &db.source);
  auto bad_pace = exec.Run(PaceConfig(g.num_subplans(), 0));
  ASSERT_FALSE(bad_pace.ok());
  EXPECT_EQ(bad_pace.status().code(), StatusCode::kInvalidArgument);
  auto bad_size = exec.Run(PaceConfig(g.num_subplans() + 1, 1));
  ASSERT_FALSE(bad_size.ok());
  EXPECT_EQ(bad_size.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorSpine, ExecutorSurfacesPoisonedBufferInsteadOfCrashing) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "join",
              b.Aggregate(b.Join(b.ScanFiltered("orders", nullptr),
                                 b.ScanFiltered("customer", nullptr),
                                 {"o_custkey"}, {"c_custkey"}),
                          {"c_region"}, {CountAgg("n")})};
  SubplanGraph g = SubplanGraph::Build({q});
  AdaptiveExecutor exec(&g, &db.source);
  db.source.buffer("orders")->InjectFault(
      Status::Internal("poisoned partition"));
  auto r = exec.Run(PaceConfig(g.num_subplans(), 2));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("poisoned"), std::string::npos);
  db.source.buffer("orders")->ClearFault();
}

TEST(ErrorSpine, AdaptiveExecutorValidatesPaces) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "count",
              b.Aggregate(b.ScanFiltered("orders", nullptr), {},
                          {CountAgg("n")})};
  SubplanGraph g = SubplanGraph::Build({q});
  CostEstimator est(&g, &db.catalog);
  AdaptiveExecutor exec(&est, &db.source, {1e18});
  auto r = exec.Run(PaceConfig(g.num_subplans(), -3));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Exact pace-boundary release (regression for paces 3, 7, 11)
// ---------------------------------------------------------------------------

class PaceBoundary : public ::testing::TestWithParam<int> {};

TEST_P(PaceBoundary, StepTargetsAreExactIntegerFloors) {
  int pace = GetParam();
  for (int64_t total : {30, 97, 100, 1000}) {
    StreamSource src;
    DeltaBuffer* buf =
        src.AddTable("t", OneCol(), MakeRows(static_cast<int>(total)));
    for (int i = 1; i <= pace; ++i) {
      ASSERT_TRUE(src.AdvanceToStep(i, pace).ok());
      // floor(i * total / pace) computed in integers: no binary-fraction
      // drift even for paces 3, 7, 11 whose reciprocals are non-dyadic.
      EXPECT_EQ(buf->size(), i * total / pace)
          << "pace " << pace << " step " << i << " total " << total;
    }
    EXPECT_EQ(buf->size(), total);
  }
}

INSTANTIATE_TEST_SUITE_P(NonDyadicPaces, PaceBoundary,
                         ::testing::Values(3, 7, 11));

// ---------------------------------------------------------------------------
// PerturbedStreamSource
// ---------------------------------------------------------------------------

TEST(PerturbedSource, SameSeedReleasesIdenticalStreams) {
  FaultPlan plan = FaultPlan::Random(7, 5, {"t"});
  ASSERT_TRUE(plan.Validate().ok());
  PerturbedStreamSource a(plan), bsrc(plan);
  a.AddTable("t", OneCol(), MakeRows(200));
  bsrc.AddTable("t", OneCol(), MakeRows(200));
  for (int i = 1; i <= 13; ++i) {
    ASSERT_TRUE(a.AdvanceToStep(i, 13).ok());
    ASSERT_TRUE(bsrc.AdvanceToStep(i, 13).ok());
    ASSERT_EQ(a.buffer("t")->size(), bsrc.buffer("t")->size()) << i;
  }
  const auto& la = a.buffer("t")->log();
  const auto& lb = bsrc.buffer("t")->log();
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].ToString(), lb[i].ToString());
  }
  // Replays after Reset() are identical too (reorder permutations cached).
  int64_t before = a.buffer("t")->size();
  a.Reset();
  ASSERT_TRUE(a.AdvanceToStep(1, 1).ok());
  EXPECT_EQ(a.buffer("t")->size(), before);
}

TEST(PerturbedSource, EveryFaultKindStillReleasesAllAtTrigger) {
  for (auto kind :
       {FaultEvent::Kind::kBurst, FaultEvent::Kind::kStall,
        FaultEvent::Kind::kRateDrift, FaultEvent::Kind::kJitter,
        FaultEvent::Kind::kReorder}) {
    FaultPlan plan;
    plan.seed = 3;
    FaultEvent e;
    e.kind = kind;
    e.at = 0.3;
    e.duration = 0.3;
    e.magnitude = 0.5;
    plan.events.push_back(e);
    PerturbedStreamSource src(plan);
    DeltaBuffer* buf = src.AddTable("t", OneCol(), MakeRows(101));
    int64_t prev = 0;
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(src.AdvanceToStep(i, 10).ok());
      EXPECT_GE(buf->size(), prev);  // releases are monotone
      prev = buf->size();
    }
    // The trigger releases everything regardless of the fault: correctness
    // is invariant, only the timing of work changes.
    EXPECT_EQ(buf->size(), 101) << plan.ToString();
  }
}

TEST(PerturbedSource, WarpIsBoundedAndMonotone) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FaultPlan plan = FaultPlan::Random(seed, 6, {"t"});
    PerturbedStreamSource src(plan);
    src.AddTable("t", OneCol(), MakeRows(10));
    double prev = -1;
    for (int i = 0; i <= 50; ++i) {
      double w = src.WarpFraction("t", i / 50.0);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
      EXPECT_GE(w, prev - 1e-12) << plan.ToString();
      prev = w;
    }
  }
}

TEST(PerturbedSource, InvalidPlanSurfacesOnAdvance) {
  FaultPlan plan;
  FaultEvent e;
  e.at = 2.0;  // outside the window
  plan.events.push_back(e);
  EXPECT_EQ(plan.Validate().code(), StatusCode::kOutOfRange);
  PerturbedStreamSource src(plan);
  src.AddTable("t", OneCol(), MakeRows(10));
  EXPECT_EQ(src.AdvanceToStep(1, 2).code(), StatusCode::kOutOfRange);
}

TEST(PerturbedSource, ReorderNeverMovesDeleteBeforeInsert) {
  FaultPlan plan;
  plan.seed = 11;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kReorder;
  e.at = 0.0;
  e.duration = 1.0;
  plan.events.push_back(e);
  PerturbedStreamSource src(plan);
  // Insert/delete pairs: the whole region contains retractions, so the
  // reorder must leave it untouched.
  std::vector<DeltaTuple> deltas;
  for (int i = 0; i < 10; ++i) {
    deltas.emplace_back(Row{Value(int64_t{i})}, QuerySet::Single(0), 1);
    deltas.emplace_back(Row{Value(int64_t{i})}, QuerySet::Single(0), -1);
  }
  DeltaBuffer* buf = src.AddTableDeltas("t", OneCol(), std::move(deltas));
  ASSERT_TRUE(src.AdvanceToStep(1, 1).ok());
  int64_t net = 0;
  for (const DeltaTuple& t : buf->log()) {
    net += t.weight;
    ASSERT_GE(net, 0);  // a delete never precedes its insert
  }
  EXPECT_EQ(net, 0);
}

// ---------------------------------------------------------------------------
// Property: adaptive execution matches batch under random faults and paces
// ---------------------------------------------------------------------------

TpchDb* Db() {
  static TpchDb* db = new TpchDb(TpchScale{0.004, 29});
  return db;
}

TEST(AdaptiveCorrectness, MatchesBatchUnderRandomFaultPlansAndPaces) {
  TpchDb* db = Db();
  QueryPlan qa = PaperQueryA(db->catalog, 0);
  QueryPlan qb = PaperQueryB(db->catalog, 1);
  MqoOptimizer mqo(&db->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({qa, qb}));

  // Clean batch baseline.
  db->Reset();
  AdaptiveExecutor batch(&g, &db->source);
  batch.Run(PaceConfig(g.num_subplans(), 1)).value();
  auto base0 = MaterializeResult(*batch.query_output(0), 0);
  auto base1 = MaterializeResult(*batch.query_output(1), 1);

  std::vector<double> abs =
      AbsoluteConstraints({qa, qb}, db->catalog, {0.4, 0.4});

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FaultPlan plan =
        FaultPlan::Random(seed, 4, db->source.TableNames());
    PerturbedStreamSource psrc(plan);
    ASSERT_TRUE(db->source.CloneTablesInto(&psrc).ok());

    // Random initial paces with the parent <= child engine requirement.
    Rng rng(seed * 1000 + 17);
    PaceConfig paces(g.num_subplans(), 1);
    for (int i = 0; i < g.num_subplans(); ++i) {
      paces[i] = static_cast<int>(rng.UniformInt(1, 6));
    }
    for (int i : g.TopoParentsFirst()) {
      for (int c : g.subplan(i).children) {
        paces[c] = std::max(paces[c], paces[i]);
      }
    }

    CostEstimator est(&g, &db->catalog);
    AdaptiveExecutor exec(&est, &psrc, abs);
    auto r = exec.Run(paces);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << plan.ToString();
    EXPECT_LE(r->stats.rederivations, AdaptiveExecutor::kMaxRederivations);

    EXPECT_TRUE(ResultsNear(MaterializeResult(*exec.query_output(0), 0),
                            base0))
        << plan.ToString();
    EXPECT_TRUE(ResultsNear(MaterializeResult(*exec.query_output(1), 1),
                            base1))
        << plan.ToString();
  }
}

TEST(AdaptiveCorrectness, IntegerResultsExactlyEqualBatchUnderFaults) {
  // Integer-only query: results must be bit-identical, not just near.
  Schema s({{"id", DataType::kInt64}, {"cat", DataType::kInt64}});
  Catalog catalog;
  CHECK(catalog.AddTable("t", s, TableStats()).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 120; ++i) rows.push_back({Value(i), Value(i % 7)});

  PlanBuilder b(&catalog, 0);
  QueryPlan q{0, "cnt",
              b.Aggregate(b.ScanFiltered("t", nullptr), {"cat"},
                          {CountAgg("n")})};
  SubplanGraph g = SubplanGraph::Build({q});

  StreamSource clean;
  clean.AddTable("t", s, rows);
  AdaptiveExecutor batch(&g, &clean);
  batch.Run(PaceConfig(g.num_subplans(), 1)).value();
  auto base = MaterializeResult(*batch.query_output(0), 0);

  FaultPlan plan;
  plan.seed = 99;
  plan.events.push_back({FaultEvent::Kind::kBurst, 0.2, 0, 0.25, ""});
  plan.events.push_back({FaultEvent::Kind::kStall, 0.5, 0.2, 0, ""});
  plan.events.push_back({FaultEvent::Kind::kReorder, 0.1, 0.6, 0, ""});
  PerturbedStreamSource psrc(plan);
  psrc.AddTable("t", s, rows);

  CostEstimator est(&g, &catalog);
  AdaptiveExecutor exec(&est, &psrc, {1e18});
  auto r = exec.Run(PaceConfig(g.num_subplans(), 5));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto res = MaterializeResult(*exec.query_output(0), 0);
  ASSERT_EQ(res.size(), base.size());
  for (const auto& [row, mult] : base) {
    auto it = res.find(row);
    ASSERT_NE(it, res.end()) << RowToString(row);
    EXPECT_EQ(it->second, mult);
  }
}

TEST(AdaptiveDegradation, SkipsOnlySlackSubplansAndStaysCorrect) {
  TpchDb* db = Db();
  QueryPlan qa = PaperQueryA(db->catalog, 0);
  QueryPlan qb = PaperQueryB(db->catalog, 1);
  MqoOptimizer mqo(&db->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({qa, qb}));

  db->Reset();
  AdaptiveExecutor batch(&g, &db->source);
  batch.Run(PaceConfig(g.num_subplans(), 1)).value();
  auto base0 = MaterializeResult(*batch.query_output(0), 0);
  auto base1 = MaterializeResult(*batch.query_output(1), 1);

  // Half the window bursts in at 5% under tight constraints: catch-ups of
  // the protective subplans push observed work past twice the
  // drift-corrected pro-rata budget, so the default policy skips slack
  // subplans' scheduled executions — and results must not change.
  FaultPlan plan;
  plan.seed = 5;
  plan.events.push_back({FaultEvent::Kind::kBurst, 0.05, 0, 0.5, ""});
  PerturbedStreamSource psrc(plan);
  ASSERT_TRUE(db->source.CloneTablesInto(&psrc).ok());

  std::vector<double> abs =
      AbsoluteConstraints({qa, qb}, db->catalog, {0.15, 0.15});
  CostEstimator est(&g, &db->catalog);
  AdaptiveExecutor exec(&est, &psrc, abs, AdaptivePolicy());
  auto r = exec.Run(PaceConfig(g.num_subplans(), 16));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.skipped_execs, 0);
  EXPECT_TRUE(
      ResultsNear(MaterializeResult(*exec.query_output(0), 0), base0));
  EXPECT_TRUE(
      ResultsNear(MaterializeResult(*exec.query_output(1), 1), base1));
}

}  // namespace
}  // namespace ishare
