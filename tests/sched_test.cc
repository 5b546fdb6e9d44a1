// Scheduler suite (DESIGN.md §10):
//  - WorkerPool units: every ParallelFor index runs exactly once, nested
//    ParallelFor does not deadlock, the 1-thread pool degenerates to an
//    in-order serial loop, degenerate counts are no-ops,
//  - level construction units: levels respect producer/consumer edges,
//    concatenated levels are a permutation of the subplans, StaticLevels
//    covers the graph, and sched.step.waves counts exactly the levels
//    the pool dispatched,
//  - the bit-exactness property: across 100 seeded random shared TPC-H
//    plans x {2, 4, 8} threads (a third of them with a track-only memory
//    budget attached), a parallel run's materialized results, state
//    fingerprint and (curated) metrics are bit-identical to the serial
//    run's — the scheduler may only move work across threads, never
//    change a single bit of what is computed.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ishare/common/check.h"
#include "ishare/common/rng.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/sched/wave.h"
#include "ishare/sched/worker_pool.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  sched::WorkerPool pool(4);
  const int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller of an inner ParallelFor helps while waiting, so a task
  // that itself fans out cannot deadlock even when every worker is busy.
  sched::WorkerPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(16, [&](int64_t) { sum.fetch_add(1); });
  });
  EXPECT_EQ(sum.load(), 8 * 16);
}

TEST(WorkerPoolTest, SingleThreadPoolIsAnInOrderSerialLoop) {
  // num_threads <= 1 must not only produce the same multiset of calls but
  // run them in index order on the calling thread — the serial baseline
  // the equivalence tests compare against.
  sched::WorkerPool pool(1);
  std::vector<int64_t> order;
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(64, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPoolTest, DegenerateCountsAreNoOps) {
  sched::WorkerPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(WorkerPoolTest, ManySmallParallelForsDrainCleanly) {
  // Leftover helper tasks from a finished ParallelFor must exit without
  // touching the (destroyed) loop body; hammering small loops back to
  // back is the stress shape that would expose a stale-task bug.
  sched::WorkerPool pool(4);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(3, [&](int64_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 200 * 6);
}

// ---------------------------------------------------------------------------
// Level construction
// ---------------------------------------------------------------------------

// agg -> filter -> agg chain cut at aggregates: two subplans, child feeds
// parent. The smallest graph with a real producer/consumer edge.
SubplanGraph ChainGraph(TestDb* db) {
  PlanBuilder b(&db->catalog, 0);
  PlanNodePtr inner = b.Aggregate(b.ScanFiltered("orders", nullptr),
                                  {"o_custkey"},
                                  {SumAgg(Col("o_amount"), "t")});
  QueryPlan q{0, "chain",
              b.Aggregate(b.Filter(inner, Gt(Col("t"), Lit(100.0))), {},
                          {CountAgg("n")})};
  return SubplanGraph::Build({q}, [](const PlanNode& n) {
    return n.kind == PlanKind::kAggregate;
  });
}

TEST(WaveTest, RunnableChildPrecedesParent) {
  TestDb db;
  SubplanGraph g = ChainGraph(&db);
  ASSERT_EQ(g.num_subplans(), 2);
  std::vector<std::vector<int>> waves = sched::StaticLevels(g);
  ASSERT_EQ(waves.size(), 2u);
  int child = g.subplan(g.query_root(0)).children[0];
  EXPECT_EQ(waves[0], std::vector<int>{child});
  EXPECT_EQ(waves[1], std::vector<int>{g.query_root(0)});
}

TEST(WaveTest, ConcatenationIsAPermutationOfRunnable) {
  TpchDb db(TpchScale{0.001, 3});
  MqoOptimizer mqo(&db.catalog);
  std::vector<QueryPlan> qs = {TpchQuery(db.catalog, 5, 0),
                               TpchQuery(db.catalog, 7, 1),
                               TpchQuery(db.catalog, 17, 2)};
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
  std::vector<int> runnable = g.TopoChildrenFirst();
  std::vector<std::vector<int>> waves = sched::StaticLevels(g);
  std::vector<int> flat;
  for (size_t w = 0; w < waves.size(); ++w) {
    for (int s : waves[w]) {
      flat.push_back(s);
      // Every runnable child sits in a strictly earlier wave.
      for (int c : g.subplan(s).children) {
        bool found_earlier = false;
        for (size_t pw = 0; pw < w && !found_earlier; ++pw) {
          for (int p : waves[pw]) found_earlier = found_earlier || p == c;
        }
        EXPECT_TRUE(found_earlier) << "child " << c << " of " << s;
      }
    }
  }
  std::set<int> uniq(flat.begin(), flat.end());
  EXPECT_EQ(uniq.size(), flat.size());
  EXPECT_EQ(uniq, std::set<int>(runnable.begin(), runnable.end()));
}

TEST(WaveTest, StaticLevelsCoverEverySubplanOnce) {
  TpchDb db(TpchScale{0.001, 3});
  MqoOptimizer mqo(&db.catalog);
  std::vector<QueryPlan> qs = {TpchQuery(db.catalog, 5, 0),
                               TpchQuery(db.catalog, 9, 1)};
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
  std::vector<std::vector<int>> levels = sched::StaticLevels(g);
  int count = 0;
  std::vector<int> level_of(g.num_subplans(), -1);
  for (size_t l = 0; l < levels.size(); ++l) {
    for (int s : levels[l]) {
      ++count;
      level_of[s] = static_cast<int>(l);
    }
  }
  EXPECT_EQ(count, g.num_subplans());
  for (int s = 0; s < g.num_subplans(); ++s) {
    ASSERT_GE(level_of[s], 0) << s;
    for (int c : g.subplan(s).children) {
      EXPECT_LT(level_of[c], level_of[s]) << "edge " << c << "->" << s;
    }
  }
}

// ---------------------------------------------------------------------------
// The bit-exactness property
// ---------------------------------------------------------------------------

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

struct RunOutput {
  std::string fingerprint;
  std::vector<ResultMap> results;
  // Counters with wall-clock ("seconds") and scheduler-internal
  // ("sched.") series removed: those legitimately differ between serial
  // and parallel runs; everything else must match to the last bit.
  std::map<std::string, double> counters;
};

std::map<std::string, double> CuratedCounters() {
  std::map<std::string, double> out;
  for (const auto& [name, value] : obs::Registry().Snapshot().counters) {
    if (name.find("seconds") != std::string::npos) continue;
    if (name.rfind("sched.", 0) == 0) continue;
    out[name] = value;
  }
  return out;
}

ExecOptions ThreadedOptions(int threads) {
  ExecOptions opts;
  opts.sched.num_threads = threads;
  return opts;
}

RunOutput RunPace(TpchDb* db, const SubplanGraph& g, const PaceConfig& paces,
                  int threads, bool track_budget) {
  // Reset BEFORE construction: executors resolve counter handles in their
  // constructors and Reset() invalidates them.
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();
  // Fresh source per run: consumer registrations accumulate on a shared
  // source's base buffers across executor constructions, and the stale
  // ids would make the two fingerprints differ for reasons that have
  // nothing to do with scheduling.
  StreamSource src;
  CHECK(db->source.CloneTablesInto(&src).ok());
  flow::MemoryBudget budget;  // track-only: accounts, never limits
  ExecOptions opts = ThreadedOptions(threads);
  if (track_budget) opts.flow.budget = &budget;
  AdaptiveExecutor exec(&g, &src, opts);
  // A budget without an estimator keeps the pool.
  CHECK_EQ(exec.worker_pool() != nullptr, threads > 1);
  CHECK(exec.Run(paces).ok());
  RunOutput out;
  out.fingerprint = exec.StateFingerprint();
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    out.results.push_back(MaterializeResult(*exec.query_output(q), q));
  }
  out.counters = CuratedCounters();
  return out;
}

TEST(SchedEquivalence, ParallelPaceRunsAreBitExactOverRandomSharedPlans) {
  TpchDb db(TpchScale{0.001, 11});
  MqoOptimizer mqo(&db.catalog);
  const int kSeeds = 100;
  const int kThreads[] = {2, 4, 8};
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    int nq = static_cast<int>(2 + rng.UniformInt(0, 2));
    std::vector<QueryPlan> qs;
    for (int q = 0; q < nq; ++q) {
      int qnum = static_cast<int>(1 + rng.UniformInt(0, 21));
      qs.push_back(TpchQuery(db.catalog, qnum, q));
    }
    SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
    PaceConfig paces(g.num_subplans());
    for (int& p : paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
    int threads = kThreads[seed % 3];
    // A third of the seeds, spread over every thread count.
    bool budget = seed % 9 < 3;

    RunOutput serial = RunPace(&db, g, paces, 1, budget);
    RunOutput parallel = RunPace(&db, g, paces, threads, budget);

    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << "seed " << seed << " threads " << threads << " budget " << budget;
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (size_t q = 0; q < serial.results.size(); ++q) {
      EXPECT_TRUE(ExactlyEqual(parallel.results[q], serial.results[q]))
          << "seed " << seed << " threads " << threads << " query " << q;
    }
    EXPECT_EQ(parallel.counters, serial.counters)
        << "seed " << seed << " threads " << threads;
  }
}

TEST(SchedEquivalence, AdaptiveParallelRunsAreBitExact) {
  // The adaptive executor's level-parallel path: skip/catch-up decisions
  // are work-based and must replay identically, so fingerprints, results
  // and curated metrics all match the serial run. Smaller sweep — the
  // decision logic is what differs from the static-schedule property
  // above.
  TpchDb db(TpchScale{0.001, 13});
  MqoOptimizer mqo(&db.catalog);
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    std::vector<QueryPlan> qs = {
        TpchQuery(db.catalog, static_cast<int>(1 + rng.UniformInt(0, 21)), 0),
        TpchQuery(db.catalog, static_cast<int>(1 + rng.UniformInt(0, 21)), 1)};
    SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
    PaceConfig paces(g.num_subplans());
    for (int& p : paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
    int threads = 2 + 2 * (seed % 2);  // 2 or 4

    auto run = [&](int nthreads) {
      // Estimator construction must follow the registry reset: it caches
      // counter handles that Reset() deletes.
      obs::Registry().Reset();
      obs::GlobalTracer().Reset();
      CostEstimator est(&g, &db.catalog);
      StreamSource src;  // fresh consumers, see RunPace
      CHECK(db.source.CloneTablesInto(&src).ok());
      AdaptiveExecutor exec(&est, &src, {1e18, 1e18}, AdaptivePolicy(),
                            ThreadedOptions(nthreads));
      AdaptiveRunResult r = exec.Run(paces).value();
      RunOutput out;
      out.fingerprint = exec.StateFingerprint();
      for (QueryId q = 0; q < g.num_queries(); ++q) {
        out.results.push_back(MaterializeResult(*exec.query_output(q), q));
      }
      out.counters = CuratedCounters();
      // FlowStats ride along in the fingerprint, but check the headline
      // ledger explicitly: admission accounting must not depend on the
      // thread count.
      out.counters["__flow.admitted"] =
          static_cast<double>(r.flow.admitted_tuples);
      out.counters["__stats.skipped"] =
          static_cast<double>(r.stats.skipped_execs);
      out.counters["__stats.catchup"] =
          static_cast<double>(r.stats.catchup_execs);
      return out;
    };

    RunOutput serial = run(1);
    RunOutput parallel = run(threads);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << "seed " << seed << " threads " << threads;
    for (size_t q = 0; q < serial.results.size(); ++q) {
      EXPECT_TRUE(ExactlyEqual(parallel.results[q], serial.results[q]))
          << "seed " << seed << " query " << q;
    }
    EXPECT_EQ(parallel.counters, serial.counters) << "seed " << seed;
  }
}

TEST(SchedEquivalence, StepWavesCountDispatchedLevels) {
  // sched.step.waves counts the dependency levels the pool dispatched:
  // exactly the after-wave hook's firings with a pool, none in serial
  // runs — for the static and the estimator-driven schedule alike.
  TpchDb db(TpchScale{0.001, 3});
  MqoOptimizer mqo(&db.catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(
      {TpchQuery(db.catalog, 5, 0), TpchQuery(db.catalog, 7, 1)}));
  PaceConfig paces(g.num_subplans(), 2);
  for (bool with_estimator : {false, true}) {
    for (int threads : {1, 4}) {
      obs::Registry().Reset();
      CostEstimator est(&g, &db.catalog);
      StreamSource src;
      ASSERT_TRUE(db.source.CloneTablesInto(&src).ok());
      std::unique_ptr<AdaptiveExecutor> exec =
          with_estimator
              ? std::make_unique<AdaptiveExecutor>(
                    &est, &src, std::vector<double>{1e18, 1e18},
                    AdaptivePolicy(), ThreadedOptions(threads))
              : std::make_unique<AdaptiveExecutor>(&g, &src,
                                                   ThreadedOptions(threads));
      int hook_waves = 0;
      exec->set_after_wave_hook([&](int64_t, int) {
        ++hook_waves;
        return Status::OK();
      });
      ASSERT_TRUE(exec->Run(paces).ok());
      if (threads == 1) {
        EXPECT_EQ(hook_waves, 0) << "estimator " << with_estimator;
      } else {
        EXPECT_GT(hook_waves, 0) << "estimator " << with_estimator;
      }
#if ISHARE_OBS_ENABLED
      std::map<std::string, double> counters =
          obs::Registry().Snapshot().counters;
      double waves = counters.count("sched.step.waves") != 0
                         ? counters.at("sched.step.waves")
                         : 0.0;
      EXPECT_EQ(waves, static_cast<double>(hook_waves))
          << "estimator " << with_estimator << " threads " << threads;
#endif
    }
  }
}

}  // namespace
}  // namespace ishare
