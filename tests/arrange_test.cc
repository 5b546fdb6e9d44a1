// Shared-arrangement suite (DESIGN.md §15): versioned multi-reader
// operator state with slackness-aware compaction.
//  - Arrangement units: attach-window rules, apply/dedup on identical
//    build streams, versioned bucket folds, and the compaction contract
//    (a reader at the minimum version pins the bound; detach unpins;
//    zero-slack or reader-free arrangements fold eagerly; slack-full
//    readers fold lazily only past the chain threshold),
//  - eligibility + cost term: specs are query-set independent (two
//    queries over the same base build produce the same signature), a
//    filter between scan and operator disqualifies, and the decomposer's
//    ArrangedSharedWork discount counts exactly the eligible build rows,
//  - the property: across 100 seeded random shared workloads, a run with
//    an ArrangementCatalog is bit-identical (results, state fingerprint,
//    curated metrics) to the fully private run, serial and 4-threaded,
//  - recovery: a mid-window checkpoint carrying the catalog blob restores
//    into a fresh executor + fresh catalog and finishes bit-identically.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/arrange/arrangement.h"
#include "ishare/arrange/eligibility.h"
#include "ishare/common/rng.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"
#include "ishare/recovery/serializer.h"
#include "test_util.h"

namespace ishare {
namespace {

using arrange::Arrangement;
using arrange::ArrangementCatalog;
using arrange::ArrangementKind;
using arrange::ArrangementSpec;
using arrange::FoldedEntry;

// ---------------------------------------------------------------------------
// Arrangement units
// ---------------------------------------------------------------------------

ArrangementSpec TestJoinSpec() {
  ArrangementSpec spec;
  spec.kind = ArrangementKind::kJoinBuild;
  spec.signature = "jb:t:k";
  spec.table = "t";
  spec.key_idx = {0};
  spec.input_schema =
      Schema({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  return spec;
}

DeltaTuple T(int64_t k, double v, int32_t w = 1) {
  return DeltaTuple({Value(k), Value(v)}, QuerySet(0b1), w);
}

// Eight tuples over four keys; the build stream every reader replays.
DeltaBatch EightTuples() {
  DeltaBatch b;
  for (int i = 0; i < 8; ++i) {
    b.push_back(T(i % 4, static_cast<double>(i)));
  }
  return b;
}

TEST(ArrangementTest, AttachWindowAndDedupApply) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  ASSERT_GE(r0, 0);
  DeltaBatch b = EightTuples();
  a.Advance(r0, b);
  EXPECT_EQ(a.applied_upto(), 8);
  EXPECT_EQ(a.reader_version(r0), 8);
  EXPECT_EQ(a.applied_tuples(), 8);
  EXPECT_EQ(a.dedup_skipped(), 0);
  EXPECT_EQ(a.num_keys(), 4);

  // A second reader replaying the identical stream dedup-skips; its
  // cursor still advances tuple for tuple.
  int r1 = a.Attach(0);
  ASSERT_GE(r1, 0);
  a.Advance(r1, b);
  EXPECT_EQ(a.applied_upto(), 8);
  EXPECT_EQ(a.applied_tuples(), 8);
  EXPECT_EQ(a.dedup_skipped(), 8);
  EXPECT_EQ(a.reader_version(r1), 8);

  // The attach window is [base_version, applied_upto].
  EXPECT_EQ(a.Attach(9), -1);
  int r2 = a.Attach(8);
  EXPECT_GE(r2, 0);
  a.Detach(r0);
  a.Detach(r1);
  a.Detach(r2);
}

TEST(ArrangementTest, FoldBucketReplaysVisiblePrefix) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  a.Advance(r0, EightTuples());

  // Key 0 received rows at stream offsets 1 (i=0) and 5 (i=4): a reader
  // at version 4 sees only the first.
  std::vector<FoldedEntry> out;
  a.FoldBucket({Value(int64_t{0})}, 4, 2, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row[1].AsDouble(), 0.0);
  EXPECT_EQ(out[0].counts, (std::vector<int64_t>{1, 1}));

  a.FoldBucket({Value(int64_t{0})}, 8, 1, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].row[1].AsDouble(), 4.0);

  // A retraction folds the row back out of the bucket.
  a.Advance(r0, DeltaBatch{T(0, 0.0, -1)});
  a.FoldBucket({Value(int64_t{0})}, 9, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row[1].AsDouble(), 4.0);
  a.Detach(r0);
}

TEST(ArrangementTest, ReaderAtMinVersionPinsCompaction) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  DeltaBatch b = EightTuples();
  a.Advance(r0, b);
  int r1 = a.Attach(0);  // lagging reader, still at version 0
  ASSERT_GE(r1, 0);

  // Even eager compaction cannot fold past the laggard's cursor.
  a.SetReaderSlack(r0, 0.0);
  EXPECT_EQ(a.Compact(0), 0);
  EXPECT_EQ(a.base_version(), 0);

  // Once the laggard catches up the bound moves and the chains fold.
  a.Advance(r1, b);
  int64_t folded = a.Compact(0);
  EXPECT_GT(folded, 0);
  EXPECT_EQ(a.base_version(), 8);
  EXPECT_EQ(a.MaxChainLength(), 0);

  // Folded-away versions are no longer attachable.
  EXPECT_EQ(a.Attach(7), -1);
  int r2 = a.Attach(8);
  EXPECT_GE(r2, 0);
  a.Detach(r0);
  a.Detach(r1);
  a.Detach(r2);
}

TEST(ArrangementTest, DetachUnpinsCompaction) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  a.Advance(r0, EightTuples());
  int r1 = a.Attach(0);
  a.SetReaderSlack(r0, 0.0);
  EXPECT_EQ(a.Compact(0), 0);  // pinned at version 0 by r1

  a.Detach(r1);
  EXPECT_GT(a.Compact(0), 0);
  EXPECT_EQ(a.base_version(), 8);
  a.Detach(r0);
}

TEST(ArrangementTest, NoReadersCompactEagerly) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  a.Advance(r0, EightTuples());
  a.Detach(r0);
  // Reader-free arrangements fold everything regardless of the lazy
  // threshold: nobody can ever ask for the old versions again.
  EXPECT_GT(a.Compact(1 << 20), 0);
  EXPECT_EQ(a.base_version(), a.applied_upto());
  EXPECT_EQ(a.TotalChainLength(), 0);
}

TEST(ArrangementTest, SlackFullReaderCompactsLazilyPastThreshold) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  DeltaBatch b;
  for (int i = 0; i < 12; ++i) b.push_back(T(0, static_cast<double>(i)));
  a.Advance(r0, b);  // one key, chain length 12; default slack = 1.0

  EXPECT_EQ(a.Compact(64), 0);  // 12 <= 64: not worth folding yet
  EXPECT_EQ(a.MaxChainLength(), 12);
  EXPECT_GT(a.Compact(4), 0);  // 12 > 4: fold up to the reader's cursor
  EXPECT_EQ(a.MaxChainLength(), 0);
  EXPECT_EQ(a.base_version(), 12);
  a.Detach(r0);
}

TEST(ArrangementTest, SnapshotRestoreRoundTripsChains) {
  Arrangement a(TestJoinSpec());
  int r0 = a.Attach(0);
  a.Advance(r0, EightTuples());
  a.Compact(4);  // partial fold so both base and chains serialize
  recovery::CheckpointWriter w;
  a.Snapshot(&w);
  std::string blob = w.Take();

  Arrangement b(TestJoinSpec());
  recovery::CheckpointReader r(blob);
  ASSERT_TRUE(b.Restore(&r).ok());
  EXPECT_EQ(b.base_version(), a.base_version());
  EXPECT_EQ(b.applied_upto(), a.applied_upto());
  EXPECT_EQ(b.num_keys(), a.num_keys());
  EXPECT_EQ(b.TotalChainLength(), a.TotalChainLength());
  EXPECT_EQ(b.StateBytes(), a.StateBytes());
  std::vector<FoldedEntry> ea, eb;
  a.FoldBucket({Value(int64_t{1})}, 8, 3, &ea);
  b.FoldBucket({Value(int64_t{1})}, 8, 3, &eb);
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].row, eb[i].row);
    EXPECT_EQ(ea[i].counts, eb[i].counts);
  }
  a.Detach(r0);
}

// ---------------------------------------------------------------------------
// Eligibility and the decomposer's shared-work discount
// ---------------------------------------------------------------------------

TEST(ArrangeEligibility, SpecsAreQuerySetIndependent) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  PlanNodePtr agg0 = b0.Aggregate(
      b0.Scan("orders"), {"o_custkey"},
      {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
  PlanNodePtr agg1 = b1.Aggregate(
      b1.Scan("orders"), {"o_custkey"},
      {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
  ASSERT_TRUE(arrange::EligibleAgg(agg0.get()));
  ASSERT_TRUE(arrange::EligibleAgg(agg1.get()));
  // Different queries, same build → same signature: that equality is what
  // lets the catalog hand both operators the same arrangement.
  EXPECT_EQ(arrange::AggGroupsSpec(agg0.get()).signature,
            arrange::AggGroupsSpec(agg1.get()).signature);

  PlanNodePtr join = b0.Join(b0.Scan("orders"), b0.Scan("customer"),
                             {"o_custkey"}, {"c_custkey"});
  EXPECT_TRUE(arrange::EligibleJoinBuild(join.get(), 0));
  EXPECT_TRUE(arrange::EligibleJoinBuild(join.get(), 1));
  EXPECT_NE(arrange::JoinBuildSpec(join.get(), 0).signature,
            arrange::JoinBuildSpec(join.get(), 1).signature);

  // A per-query filter between scan and operator makes the build stream
  // query-dependent: not arrangeable.
  PlanNodePtr filtered = b0.Aggregate(
      b0.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0))),
      {"o_custkey"}, {CountAgg("n")});
  EXPECT_FALSE(arrange::EligibleAgg(filtered.get()));
  PlanNodePtr half = b0.Join(
      b0.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0))),
      b0.Scan("customer"), {"o_custkey"}, {"c_custkey"});
  EXPECT_FALSE(arrange::EligibleJoinBuild(half.get(), 0));
  EXPECT_TRUE(arrange::EligibleJoinBuild(half.get(), 1));
}

TEST(ArrangeEligibility, ArrangedSharedWorkCountsEligibleBuildRows) {
  TestDb db;  // orders: 60 rows, customer: 10 rows
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr agg = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                                {SumAgg(Col("o_amount"), "t")});
  EXPECT_DOUBLE_EQ(arrange::ArrangedSharedWork(agg.get(), db.catalog), 60.0);

  PlanNodePtr join = b.Join(b.Scan("orders"), b.Scan("customer"),
                            {"o_custkey"}, {"c_custkey"});
  EXPECT_DOUBLE_EQ(arrange::ArrangedSharedWork(join.get(), db.catalog), 70.0);

  PlanNodePtr filtered = b.Aggregate(
      b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0))),
      {"o_custkey"}, {CountAgg("n")});
  EXPECT_DOUBLE_EQ(arrange::ArrangedSharedWork(filtered.get(), db.catalog),
                   0.0);
  EXPECT_DOUBLE_EQ(arrange::ArrangedSharedWork(nullptr, db.catalog), 0.0);
}

// ---------------------------------------------------------------------------
// The arranged-vs-private bit-exactness property
// ---------------------------------------------------------------------------

// Deterministic query family of arrangement-eligible shapes: bare scans
// feeding joins/aggregates, so every operator is a candidate reader. No
// MQO merge — each query stays its own subplan, and the ONLY sharing in
// an arranged run flows through the catalog.
QueryPlan MakeArrangeQuery(const Catalog& catalog, QueryId q, int shape) {
  PlanBuilder b(&catalog, q);
  PlanNodePtr root;
  switch (shape % 4) {
    case 0:
      root = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                         {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
      break;
    case 1:
      root = b.Join(b.Scan("orders"), b.Scan("customer"), {"o_custkey"},
                    {"c_custkey"});
      break;
    case 2:
      root = b.Aggregate(b.Scan("customer"), {"c_region"}, {CountAgg("n")});
      break;
    default:
      root = b.Aggregate(b.Scan("orders"), {},
                         {MinAgg(Col("o_amount"), "lo"),
                          MaxAgg(Col("o_amount"), "hi")});
      break;
  }
  return QueryPlan{q, "aq" + std::to_string(q), root};
}

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

// Bit-exact scalar equality: the numeric tolerance of Value::operator== is
// exactly what this suite must NOT use.
::testing::AssertionResult BitExactValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << "type " << DataTypeName(a.type()) << " vs "
           << DataTypeName(b.type());
  }
  if (a.type() == DataType::kFloat64) {
    double x = a.AsDouble(), y = b.AsDouble();
    if (std::memcmp(&x, &y, sizeof(x)) != 0) {
      return ::testing::AssertionFailure() << x << " vs " << y << " (bits)";
    }
    return ::testing::AssertionSuccess();
  }
  if (!(a == b)) {
    return ::testing::AssertionFailure() << a.ToString() << " vs "
                                         << b.ToString();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult ExactSameResults(const ResultMap& a,
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
             << "multiplicity differs for " << RowToString(row);
    }
    for (size_t c = 0; c < row.size(); ++c) {
      auto r = BitExactValue(row[c], it->first[c]);
      if (!r) {
        return ::testing::AssertionFailure()
               << RowToString(row) << " col " << c << ": " << r.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct RunOutput {
  std::string fingerprint;
  std::vector<ResultMap> results;
  std::map<std::string, double> counters;
  double reader_attaches = 0;
};

// Counters that must match bit-for-bit between the arranged and private
// runs. Wall-clock and scheduler-internal series legitimately differ
// between any two runs; the arrange.* family exists only in arranged runs
// by design (that bookkeeping is what's under test elsewhere).
std::map<std::string, double> CuratedCounters() {
  std::map<std::string, double> out;
  for (const auto& [name, value] : obs::Registry().Snapshot().counters) {
    if (name.find("seconds") != std::string::npos) continue;
    if (name.rfind("sched.", 0) == 0) continue;
    if (name.rfind("arrange.", 0) == 0) continue;
    out[name] = value;
  }
  return out;
}

RunOutput RunWorkload(TestDb* db, const SubplanGraph& g,
                      const PaceConfig& paces, bool arranged, int threads) {
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();
  StreamSource src;
  CHECK(db->source.CloneTablesInto(&src).ok());
  ArrangementCatalog cat;  // declared before the executor: must outlive it
  ExecOptions opts;
  opts.sched.num_threads = threads;
  opts.sched.morsel_min_tuples = 4;
  if (arranged) opts.arrange.catalog = &cat;
  AdaptiveExecutor exec(&g, &src, opts);
  RunResult r = exec.Run(paces).value().run;
  (void)r;
  RunOutput out;
  out.fingerprint = exec.StateFingerprint();
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    out.results.push_back(MaterializeResult(*exec.query_output(q), q));
  }
  out.counters = CuratedCounters();
  out.reader_attaches =
      obs::Registry().Snapshot().counters["arrange.reader.attach"];
  return out;
}

TEST(ArrangeEquivalence, ArrangedRunIsBitExactOverRandomWorkloads) {
  obs::SetEnabled(true);
  TestDb db(200, 12, 7);
  const int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    int nq = static_cast<int>(2 + rng.UniformInt(0, 2));
    std::vector<QueryPlan> qs;
    for (int q = 0; q < nq; ++q) {
      qs.push_back(MakeArrangeQuery(
          db.catalog, q, static_cast<int>(rng.UniformInt(0, 3))));
    }
    SubplanGraph g = SubplanGraph::Build(qs);
    PaceConfig paces(g.num_subplans());
    // Distinct paces put the shared arrangement's readers at genuinely
    // different versions, exercising mid-chain folds and laggard dedup.
    for (int& p : paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
    int threads = (seed % 4 == 0) ? 4 : 1;

    RunOutput priv =
        RunWorkload(&db, g, paces, /*arranged=*/false, threads);
    RunOutput arr = RunWorkload(&db, g, paces, /*arranged=*/true, threads);

    // Guard against vacuity: some reader must actually have attached.
    // Not one per query — a slow-paced query whose first execution lands
    // after lazy compaction folded version 0 away correctly falls back
    // to private state (the UniformPacesAttachEveryQuery test pins the
    // everyone-attaches case).
    EXPECT_GE(arr.reader_attaches, 1.0) << "seed " << seed;
    EXPECT_EQ(arr.fingerprint, priv.fingerprint)
        << "seed " << seed << " threads " << threads;
    ASSERT_EQ(arr.results.size(), priv.results.size());
    for (size_t q = 0; q < priv.results.size(); ++q) {
      EXPECT_TRUE(ExactSameResults(arr.results[q], priv.results[q]))
          << "seed " << seed << " threads " << threads << " query " << q;
    }
    EXPECT_EQ(arr.counters, priv.counters)
        << "seed " << seed << " threads " << threads;
  }
}

TEST(ArrangeEquivalence, UniformPacesAttachEveryQuery) {
  // With equal paces every subplan first executes in the same step,
  // before any boundary compaction can fold version 0 away — so all four
  // aggregate readers attach to the one shared arrangement.
  obs::SetEnabled(true);
  TestDb db;
  std::vector<QueryPlan> qs;
  for (int q = 0; q < 4; ++q) {
    qs.push_back(MakeArrangeQuery(db.catalog, q, 0));
  }
  SubplanGraph g = SubplanGraph::Build(qs);
  RunOutput arr = RunWorkload(&db, g, PaceConfig(g.num_subplans(), 2),
                              /*arranged=*/true, 1);
  EXPECT_EQ(arr.reader_attaches, 4.0);
}

TEST(ArrangeEquivalence, StateBytesPerQueryGaugePublishes) {
  obs::SetEnabled(true);
  obs::Registry().Reset();
  TestDb db;
  std::vector<QueryPlan> qs;
  for (int q = 0; q < 4; ++q) {
    qs.push_back(MakeArrangeQuery(db.catalog, q, 0));
  }
  SubplanGraph g = SubplanGraph::Build(qs);
  StreamSource src;
  CHECK(db.source.CloneTablesInto(&src).ok());
  ArrangementCatalog cat;
  flow::MemoryBudget budget(1 << 30);
  ExecOptions opts;
  opts.flow.budget = &budget;
  opts.arrange.catalog = &cat;
  AdaptiveExecutor exec(&g, &src, opts);
  ASSERT_TRUE(exec.Run(PaceConfig(g.num_subplans(), 1)).ok());
  // Four identical queries share one arrangement, so the per-query share
  // is a quarter of the (positive) arranged state.
  auto gauges = obs::Registry().Snapshot().gauges;
  EXPECT_GT(gauges["flow.state_bytes_per_query"], 0.0);
  EXPECT_GT(cat.TotalStateBytes(), 0);
  EXPECT_EQ(cat.num_arrangements(), 1);
}

// ---------------------------------------------------------------------------
// Recovery: the catalog blob travels with the checkpoint
// ---------------------------------------------------------------------------

TEST(ArrangeRecovery, MidWindowCheckpointRestoresBitExactly) {
  obs::SetEnabled(true);
  TestDb db;
  std::vector<QueryPlan> qs = {MakeArrangeQuery(db.catalog, 0, 0),
                               MakeArrangeQuery(db.catalog, 1, 0),
                               MakeArrangeQuery(db.catalog, 2, 1)};
  SubplanGraph g = SubplanGraph::Build(qs);
  PaceConfig paces(g.num_subplans());
  for (int i = 0; i < g.num_subplans(); ++i) paces[i] = 1 + (i % 3);

  ArrangementCatalog cat1;
  StreamSource src1;
  CHECK(db.source.CloneTablesInto(&src1).ok());
  ExecOptions opts1;
  opts1.arrange.catalog = &cat1;
  AdaptiveExecutor e1(&g, &src1, opts1);
  std::string blob;
  e1.set_after_step_hook([&](int64_t step) -> Status {
    if (step == 2) {
      recovery::CheckpointWriter w;
      ISHARE_RETURN_NOT_OK(e1.Snapshot(&w));
      blob = w.Take();
    }
    return Status::OK();
  });
  auto res1 = e1.Run(paces);
  ASSERT_TRUE(res1.ok());
  ASSERT_FALSE(blob.empty());
  EXPECT_GT(cat1.num_arrangements(), 0);
  std::string fp1 = e1.StateFingerprint();

  // Fresh everything: executor, source, catalog. The operators re-create
  // the catalog's signatures at construction; Restore replaces contents
  // and re-attaches each reader at its checkpointed version.
  ArrangementCatalog cat2;
  StreamSource src2;
  CHECK(db.source.CloneTablesInto(&src2).ok());
  ExecOptions opts2;
  opts2.arrange.catalog = &cat2;
  AdaptiveExecutor e2(&g, &src2, opts2);
  recovery::CheckpointReader r(blob);
  ASSERT_TRUE(e2.Restore(&r).ok());
  EXPECT_EQ(cat2.num_arrangements(), cat1.num_arrangements());
  auto res2 = e2.ResumeWindow();
  ASSERT_TRUE(res2.ok());

  EXPECT_EQ(e2.StateFingerprint(), fp1);
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    EXPECT_TRUE(ExactSameResults(MaterializeResult(*e2.query_output(q), q),
                                 MaterializeResult(*e1.query_output(q), q)))
        << "query " << q;
  }
}

}  // namespace
}  // namespace ishare
