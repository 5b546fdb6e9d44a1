// Shared-arrangement suite (DESIGN.md §15): versioned multi-reader
// operator state with slackness-aware compaction.
//  - Arrangement units: attach-window rules, apply/dedup on identical
//    build streams, versioned bucket folds, and the compaction contract
//    (a reader at the minimum version pins the bound; detach unpins;
//    zero-slack or reader-free arrangements fold eagerly; slack-full
//    readers fold lazily only past the chain threshold),
//  - eligibility: specs are query-set independent (two queries over the
//    same base build produce the same signature), and a filter between
//    scan and operator disqualifies,
//  - the property: across 100 seeded random shared workloads, insert-only
//    and with deletes and updates, a run with an ArrangementCatalog is
//    bit-identical (results, state fingerprint, curated metrics) to a run
//    without one, serial and 4-threaded,
//  - the executor's chain threshold: boundary compaction keeps chains
//    within kChainCompactThreshold, with the catalog-free run's results,
//  - the shed fork: a shared join side or aggregate that loses a batch
//    forks into an arrangement of its own, then matches a catalog-less
//    operator fed the same batches and stops pinning compaction,
//  - recovery: a mid-window checkpoint carrying the catalog blob restores
//    into a fresh executor + fresh catalog and finishes bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "ishare/exec/aggregate.h"
#include "ishare/exec/hash_join.h"
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
using arrange::Bucket;

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
  Bucket scratch;
  const Bucket* out = a.Probe({Value(int64_t{0})}, 4, &scratch);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0][1].AsDouble(), 0.0);
  EXPECT_EQ(out->counts, (std::vector<int64_t>{1}));

  out = a.Probe({Value(int64_t{0})}, 8, &scratch);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->rows.size(), 2u);
  EXPECT_EQ(out->rows[1][1].AsDouble(), 4.0);

  // A retraction folds the row back out of the bucket.
  a.Advance(r0, DeltaBatch{T(0, 0.0, -1)});
  out = a.Probe({Value(int64_t{0})}, 9, &scratch);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0][1].AsDouble(), 4.0);
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
  Bucket sa, sb;
  const Bucket* ea = a.Probe({Value(int64_t{1})}, 8, &sa);
  const Bucket* eb = b.Probe({Value(int64_t{1})}, 8, &sb);
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(ea->rows, eb->rows);
  EXPECT_EQ(ea->counts, eb->counts);
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

// ---------------------------------------------------------------------------
// The arranged-vs-private bit-exactness property
// ---------------------------------------------------------------------------

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
  int attached_readers = 0;  // catalog readers attached at window end
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
  for (const std::string& sig : cat.Signatures()) {
    out.attached_readers += cat.Find(sig)->num_attached();
  }
  return out;
}

// The arranged-vs-private property over the 100 random workloads of
// MakeArrangeWorkload, run over `db`.
void ExpectArrangedMatchesPrivate(TestDb* db) {
  const int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ArrangeWorkload w = MakeArrangeWorkload(db->catalog, seed);
    const SubplanGraph& g = w.graph;
    const PaceConfig& paces = w.paces;
    const int threads = w.threads;

    RunOutput priv = RunWorkload(db, g, paces, /*arranged=*/false, threads);
    RunOutput arr = RunWorkload(db, g, paces, /*arranged=*/true, threads);

    // Guard against vacuity: some reader must actually have attached.
    // Not one per query — a slow-paced query whose first execution lands
    // after lazy compaction folded version 0 away correctly falls back
    // to an arrangement of its own (the UniformPacesAttachEveryQuery test
    // pins the everyone-attaches case).
    EXPECT_GE(arr.attached_readers, 1) << "seed " << seed;
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

TEST(ArrangeEquivalence, ArrangedRunIsBitExactOverRandomWorkloads) {
  obs::SetEnabled(true);
  TestDb db(200, 12, 7);
  ExpectArrangedMatchesPrivate(&db);
}

TEST(ArrangeEquivalence, ArrangedRunIsBitExactOverRetractingWorkloads) {
  // The same workloads over an orders stream that deletes and updates
  // rows: join buckets swap-remove and aggregate groups retract through
  // the shared arrangements.
  obs::SetEnabled(true);
  TestDb db(200, 12, 7, /*retractions=*/true);
  ExpectArrangedMatchesPrivate(&db);
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
  EXPECT_EQ(arr.attached_readers, 4);
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
#if ISHARE_OBS_ENABLED
  auto gauges = obs::Registry().Snapshot().gauges;
  EXPECT_GT(gauges["flow.state_bytes_per_query"], 0.0);
#endif
  EXPECT_GT(cat.TotalStateBytes(), 0);
  EXPECT_EQ(cat.num_arrangements(), 1);
}

TEST(ArrangeEquivalence, ChainCompactThresholdBoundsChainsNotResults) {
  // Four identical aggregate readers in lockstep share one arrangement.
  // Their slack is full, so compaction is lazy and kChainCompactThreshold
  // alone decides which chains fold at a boundary. About 100 orders per
  // key over six executions grow most chains past it by the fourth
  // boundary, which folds those and leaves the shorter ones; the results
  // are the catalog-free run's.
  TestDb db(2400, 24, 42);
  std::vector<QueryPlan> qs;
  for (int q = 0; q < 4; ++q) {
    qs.push_back(MakeArrangeQuery(db.catalog, q, 0));
  }
  SubplanGraph g = SubplanGraph::Build(qs);
  struct Outcome {
    std::vector<ResultMap> results;
    int64_t folded = 0;
    int64_t max_chain = 0;
  };
  auto run = [&](bool arranged) {
    StreamSource src;
    CHECK(db.source.CloneTablesInto(&src).ok());
    ArrangementCatalog cat;  // declared before the executor: must outlive it
    ExecOptions opts;
    if (arranged) opts.arrange.catalog = &cat;
    AdaptiveExecutor exec(&g, &src, opts);
    Outcome out;
    // The longest chain any step's boundary compaction left behind.
    exec.set_after_step_hook([&](int64_t) {
      for (const std::string& sig : cat.Signatures()) {
        out.max_chain =
            std::max(out.max_chain, cat.Find(sig)->MaxChainLength());
      }
      return Status::OK();
    });
    CHECK(exec.Run(PaceConfig(g.num_subplans(), 6)).ok());
    for (QueryId q = 0; q < g.num_queries(); ++q) {
      out.results.push_back(MaterializeResult(*exec.query_output(q), q));
    }
    for (const std::string& sig : cat.Signatures()) {
      out.folded += cat.Find(sig)->folded_total();
    }
    return out;
  };
  Outcome arr = run(true);
  Outcome priv = run(false);
  EXPECT_GT(arr.folded, 0);
  EXPECT_GT(arr.max_chain, 0);  // lazy: short chains wait
  EXPECT_LE(arr.max_chain, arrange::kChainCompactThreshold);
  ASSERT_EQ(arr.results.size(), priv.results.size());
  for (size_t q = 0; q < priv.results.size(); ++q) {
    EXPECT_TRUE(ExactSameResults(arr.results[q], priv.results[q]))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Shedding forks a shared reader into an arrangement of its own
// ---------------------------------------------------------------------------

DeltaTuple Order(int64_t id, QuerySet qs, int32_t w = 1) {
  return DeltaTuple({Value(id), Value(id % 3), Value(10.0 + 0.5 * id)}, qs, w);
}

// Orders [first, last) plus a delete of every id in `deleted`.
DeltaBatch Orders(int64_t first, int64_t last, QuerySet qs,
                  std::vector<int64_t> deleted = {}) {
  DeltaBatch b;
  for (int64_t id = first; id < last; ++id) b.push_back(Order(id, qs));
  for (int64_t id : deleted) b.push_back(Order(id, qs, -1));
  return b;
}

DeltaTuple Customer(int64_t key, QuerySet qs, int32_t w = 1) {
  return DeltaTuple({Value(key), Value(std::string(key % 2 ? "ASIA" : "EU"))},
                    qs, w);
}

::testing::AssertionResult SameBatch(const DeltaBatch& a,
                                     const DeltaBatch& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " tuples";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].qset == b[i].qset) || a[i].weight != b[i].weight ||
        a[i].row.size() != b[i].row.size()) {
      return ::testing::AssertionFailure() << "tuple " << i << " differs";
    }
    for (size_t c = 0; c < a[i].row.size(); ++c) {
      auto r = BitExactValue(a[i].row[c], b[i].row[c]);
      if (!r) return ::testing::AssertionFailure() << "tuple " << i << ": "
                                                   << r.message();
    }
  }
  return ::testing::AssertionSuccess();
}

std::string Canonical(const PhysOp& op) {
  recovery::CheckpointWriter w;
  CHECK(op.SnapshotCanonical(&w).ok());
  return w.Take();
}

void ExpectSameWork(const PhysOp& a, const PhysOp& b) {
  EXPECT_EQ(a.work().in, b.work().in);
  EXPECT_EQ(a.work().out, b.work().out);
  EXPECT_EQ(a.work().state, b.work().state);
}

// Compacts every arrangement of `cat` at threshold 0, so lazy readers'
// chains fold too, up to the minimum attached reader version.
void FoldEveryChain(const ArrangementCatalog& cat) {
  for (const std::string& sig : cat.Signatures()) cat.Find(sig)->Compact(0);
}

// Operator `a` (queries {0, 1}) shares the catalog arrangement with `b`
// (query 2). One of a's batches is shed: from then on `a` must behave
// exactly like `p`, the same operator without a catalog, fed only the
// batches `a` kept — and it must stop pinning the shared arrangement.
TEST(ArrangeFork, DiscardForksASharedAggregate) {
  TestDb db;
  ArrangementCatalog cat;
  ExecOptions::ArrangeOptions arrange;
  arrange.catalog = &cat;
  const QuerySet qa = QuerySet::FromIds({0, 1});
  const QuerySet qb = QuerySet::Single(2);
  auto node = [&](QuerySet qs) {
    return PlanNode::MakeAggregate(
        PlanNode::MakeScan(db.catalog, "orders", qs), {"o_custkey"},
        {SumAgg(Col("o_amount"), "total"), CountAgg("n"),
         MinAgg(Col("o_amount"), "lo")},
        qs);
  };
  PlanNodePtr na = node(qa);
  PlanNodePtr nb = node(qb);
  const Schema& in = na->children[0]->output_schema;
  AggregateOp a(na.get(), in, arrange);
  AggregateOp b(nb.get(), in, arrange);
  AggregateOp p(na.get(), in);
  Arrangement* shared = cat.Find(arrange::AggGroupsSpec(na.get()).signature);
  ASSERT_NE(shared, nullptr);
  auto step = [](AggregateOp* op, DeltaBatch batch) {
    op->Process(0, std::move(batch));
    return op->EndExecution();
  };

  EXPECT_TRUE(
      SameBatch(step(&a, Orders(0, 8, qa)), step(&p, Orders(0, 8, qa))));
  step(&b, Orders(0, 8, qb));
  step(&b, Orders(8, 12, qb));  // the batch `a` loses
  EXPECT_EQ(shared->num_attached(), 2);
  FoldEveryChain(cat);
  EXPECT_EQ(shared->base_version(), 8);  // pinned by `a`

  a.OnInputDiscarded();
  EXPECT_EQ(shared->num_attached(), 1);
  FoldEveryChain(cat);
  EXPECT_EQ(shared->base_version(), 12);

  EXPECT_TRUE(SameBatch(step(&a, Orders(12, 16, qa, {2, 4})),
                        step(&p, Orders(12, 16, qa, {2, 4}))));
  step(&b, Orders(12, 16, qb, {2, 4}));
  EXPECT_TRUE(SameBatch(step(&a, Orders(16, 20, qa, {1})),
                        step(&p, Orders(16, 20, qa, {1}))));
  ExpectSameWork(a, p);
  EXPECT_EQ(Canonical(a), Canonical(p));
  EXPECT_EQ(a.StateBytes(), p.StateBytes());
}

TEST(ArrangeFork, DiscardForksSharedJoinSides) {
  TestDb db;
  ArrangementCatalog cat;
  ExecOptions::ArrangeOptions arrange;
  arrange.catalog = &cat;
  const QuerySet qa = QuerySet::FromIds({0, 1});
  const QuerySet qb = QuerySet::Single(2);
  auto node = [&](QuerySet qs) {
    return PlanNode::MakeJoin(PlanNode::MakeScan(db.catalog, "orders", qs),
                              PlanNode::MakeScan(db.catalog, "customer", qs),
                              {"o_custkey"}, {"c_custkey"}, JoinType::kInner,
                              qs);
  };
  PlanNodePtr na = node(qa);
  PlanNodePtr nb = node(qb);
  const Schema& ls = na->children[0]->output_schema;
  const Schema& rs = na->children[1]->output_schema;
  HashJoinOp a(na.get(), ls, rs, arrange);
  HashJoinOp b(nb.get(), ls, rs, arrange);
  HashJoinOp p(na.get(), ls, rs);
  Arrangement* orders =
      cat.Find(arrange::JoinBuildSpec(na.get(), 0).signature);
  Arrangement* customers =
      cat.Find(arrange::JoinBuildSpec(na.get(), 1).signature);
  ASSERT_NE(orders, nullptr);
  ASSERT_NE(customers, nullptr);
  auto customers_batch = [](QuerySet qs, bool second) {
    if (!second) return DeltaBatch{Customer(0, qs), Customer(1, qs)};
    return DeltaBatch{Customer(2, qs), Customer(0, qs, -1)};
  };

  EXPECT_TRUE(SameBatch(a.Process(1, customers_batch(qa, false)),
                        p.Process(1, customers_batch(qa, false))));
  EXPECT_TRUE(SameBatch(a.Process(0, Orders(0, 8, qa)),
                        p.Process(0, Orders(0, 8, qa))));
  b.Process(1, customers_batch(qb, false));
  b.Process(0, Orders(0, 8, qb));
  b.Process(0, Orders(8, 12, qb));  // the batch `a` loses
  EXPECT_EQ(orders->num_attached(), 2);
  EXPECT_EQ(customers->num_attached(), 2);

  a.OnInputDiscarded();
  EXPECT_EQ(orders->num_attached(), 1);
  EXPECT_EQ(customers->num_attached(), 1);
  FoldEveryChain(cat);
  EXPECT_EQ(orders->base_version(), 12);

  EXPECT_TRUE(SameBatch(a.Process(0, Orders(12, 16, qa, {2, 3})),
                        p.Process(0, Orders(12, 16, qa, {2, 3}))));
  EXPECT_TRUE(SameBatch(a.Process(1, customers_batch(qa, true)),
                        p.Process(1, customers_batch(qa, true))));
  b.Process(0, Orders(12, 16, qb, {2, 3}));
  b.Process(1, customers_batch(qb, true));
  EXPECT_TRUE(SameBatch(a.Process(0, Orders(16, 20, qa)),
                        p.Process(0, Orders(16, 20, qa))));
  ExpectSameWork(a, p);
  EXPECT_EQ(Canonical(a), Canonical(p));
  EXPECT_EQ(a.StateBytes(), p.StateBytes());
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
