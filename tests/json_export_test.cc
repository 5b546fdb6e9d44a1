// Tests for harness/json_export.h: golden-file schema stability, a real
// experiment export round-trip through the obs JSON parser, and runtime
// on/off parity of deterministic experiment results.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "ishare/harness/json_export.h"
#include "ishare/workload/tpch_queries.h"

#ifndef ISHARE_GOLDEN_DIR
#define ISHARE_GOLDEN_DIR "."
#endif

namespace ishare {
namespace {

TpchDb* Db() {
  static TpchDb* db = new TpchDb(TpchScale{0.004, 29});
  return db;
}

// Hand-crafted snapshots: the golden file pins the exact serialization of
// every schema element (key order, double formatting, null for non-finite,
// histogram blocks, spans).
std::string GoldenDocument() {
  BenchRunInfo info;
  info.bench = "golden_bench";
  info.sf = 0.01;
  info.max_pace = 50;
  info.seed = 7;
  info.threads = 4;
  info.quick = false;

  ExperimentResult r;
  r.approach = Approach::kIShare;
  r.total_work = 1234.5;
  r.total_seconds = 0.25;
  r.optimization_seconds = 0.125;
  r.est_total_work = 1200.0;
  r.decompose_stats.splits_considered = 3;
  r.decompose_stats.splits_adopted = 1;
  r.decompose_stats.partial_splits_adopted = 0;
  r.decompose_stats.partitions_evaluated = 42;
  QueryMetrics q1;
  q1.name = "q05";
  q1.final_work = 100.0;
  q1.batch_final_work = 400.0;
  q1.final_work_goal = 80.0;
  q1.latency_seconds = 0.03125;
  q1.batch_latency = 0.125;
  q1.latency_goal = 0.025;
  q1.missed_abs = 0.00390625;
  q1.missed_rel = 0.25;
  q1.deadline_met = false;
  QueryMetrics q2;
  q2.name = "q08";
  q2.final_work = 50.0;
  q2.batch_final_work = 200.0;
  q2.final_work_goal = 100.0;
  q2.latency_seconds = 0.015625;
  q2.batch_latency = 0.0625;
  q2.latency_goal = 0.03125;
  q2.missed_abs = 0.0;
  q2.missed_rel = 0.0;
  q2.deadline_met = true;
  r.queries = {q1, q2};

  obs::MetricsSnapshot metrics;
  metrics.counters["exec.subplan.executions"] = 96.0;
  metrics.counters["exec.subplan.work#subplan_0"] = 512.0;
  metrics.counters["churn.registrations"] = 6.0;
  metrics.counters["churn.deregistrations"] = 2.0;
  metrics.counters["churn.epochs"] = 4.0;
  metrics.counters["churn.subplans_carried"] = 9.0;
  metrics.counters["churn.subplans_rebuilt"] = 3.0;
  metrics.counters["churn.reclaimed_bytes"] = 65536.0;
  metrics.counters["shard.rounds"] = 16.0;
  metrics.counters["shard.merged_tuples"] = 2048.0;
  metrics.counters["shard.straggler.absorbed"] = 3.0;
  metrics.counters["shard.recovery.recoveries"] = 1.0;
  metrics.counters["arrange.reader.attach"] = 4.0;
  metrics.counters["arrange.reader.detach"] = 1.0;
  metrics.counters["arrange.compact.runs"] = 2.0;
  metrics.counters["arrange.compact.folded"] = 128.0;
  metrics.gauges["cost.memo.hit_rate"] = 0.9375;
  metrics.gauges["arrange.count"] = 2.0;
  metrics.gauges["arrange.state_bytes"] = 4096.0;
  metrics.gauges["arrange.chain.max_len"] = 5.0;
  metrics.gauges["arrange.apply.tuples"] = 1024.0;
  metrics.gauges["arrange.apply.dedup_skipped"] = 512.0;
  metrics.gauges["flow.state_bytes_per_query"] = 2048.0;
  obs::HistogramSnapshot h;
  h.bounds = {0.001, 0.002, 0.004};
  h.counts = {3, 1, 0, 1};
  h.count = 5;
  h.dropped = 1;
  h.sum = 0.0085;
  h.p50 = 0.00075;
  h.p95 = 0.0035;
  h.p99 = 0.004;
  metrics.histograms["harness.query.latency_seconds#q05"] = h;

  std::map<std::string, obs::SpanStats> spans;
  obs::SpanStats s;
  s.count = 12;
  s.total_seconds = 0.375;
  s.min_seconds = 0.015625;
  s.max_seconds = 0.0625;
  spans["opt.pace_search.run"] = s;

  return BenchReportJson(info, {r}, metrics, spans);
}

TEST(JsonExportGoldenTest, MatchesGoldenFile) {
  std::string actual = GoldenDocument();
  ASSERT_FALSE(actual.empty());

  std::string path = std::string(ISHARE_GOLDEN_DIR) + "/experiment_export.json";
  // Intentional schema changes re-pin the golden file (and bump
  // schema_version) by running, as one command:
  //   ISHARE_REGEN_GOLDEN=1 ./build/tests/json_export_test
  //     --gtest_filter='JsonExportGoldenTest.MatchesGoldenFile'
  if (const char* regen = std::getenv("ISHARE_REGEN_GOLDEN");
      regen != nullptr && *regen != '\0') {
    ASSERT_TRUE(WriteBenchJson(path, actual).ok());
    GTEST_SKIP() << "re-pinned golden file " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "\nactual document:\n"
                         << actual;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  // The checked-in file ends with a newline; the document does not.
  while (!expected.empty() &&
         (expected.back() == '\n' || expected.back() == '\r')) {
    expected.pop_back();
  }
  EXPECT_EQ(actual, expected)
      << "export schema drifted; if intentional, update " << path
      << " and bump schema_version";
}

TEST(JsonExportGoldenTest, GoldenDocumentParsesBack) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(GoldenDocument(), &v, &err)) << err;
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  // Top-level key order is part of the schema contract.
  const std::vector<std::string> kKeys = {"schema_version", "generator",
                                          "bench",          "config",
                                          "results",        "metrics",
                                          "spans"};
  ASSERT_EQ(v.obj.size(), kKeys.size());
  for (size_t i = 0; i < kKeys.size(); ++i) {
    EXPECT_EQ(v.obj[i].first, kKeys[i]);
  }
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->num, 11.0);
  EXPECT_DOUBLE_EQ(v.Find("config")->Find("threads")->num, 4.0);

  // v11 dropped each result's "adaptation" block and the seven rollup
  // blocks; a value a rollup used to copy is read from "metrics" under
  // its series name.
  const obs::JsonValue& res = v.Find("results")->arr.at(0);
  EXPECT_EQ(res.Find("adaptation"), nullptr);
  ASSERT_NE(res.Find("decompose"), nullptr);
  const obs::JsonValue* metrics = v.Find("metrics");
  EXPECT_DOUBLE_EQ(
      metrics->Find("counters")->Find("churn.registrations")->num, 6.0);
  EXPECT_DOUBLE_EQ(
      metrics->Find("gauges")->Find("flow.state_bytes_per_query")->num,
      2048.0);
}

TEST(JsonExportTest, RealExperimentExportRoundTrips) {
  obs::SetEnabled(true);
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();

  TpchDb* db = Db();
  std::vector<QueryPlan> queries = {TpchQuery(db->catalog, 5, 0),
                                    TpchQuery(db->catalog, 8, 1)};
  std::vector<double> rel(queries.size(), 0.2);
  ApproachOptions opts;
  opts.max_pace = 8;
  Experiment ex(&db->catalog, &db->source, queries, rel, opts);
  std::vector<ExperimentResult> results = {ex.Run(Approach::kIShare)};

  BenchRunInfo info;
  info.bench = "json_export_test";
  std::string doc = BenchReportJson(info, results);
  ASSERT_FALSE(doc.empty());

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(doc, &v, &err)) << err;

  const obs::JsonValue* res = v.Find("results");
  ASSERT_NE(res, nullptr);
  ASSERT_EQ(res->arr.size(), 1u);
  EXPECT_EQ(res->arr[0].Find("approach")->str, "iShare");
  EXPECT_EQ(res->arr[0].Find("queries")->arr.size(), 2u);

  const obs::JsonValue* metrics = v.Find("metrics");
  ASSERT_NE(metrics, nullptr);
#if ISHARE_OBS_ENABLED
  // Per-query latency histograms with percentiles.
  const obs::JsonValue* histos = metrics->Find("histograms");
  ASSERT_NE(histos, nullptr);
  const obs::JsonValue* qh = histos->Find("harness.query.latency_seconds#Q5");
  ASSERT_NE(qh, nullptr) << doc.substr(0, 400);
  EXPECT_GE(qh->Find("count")->num, 1.0);
  EXPECT_GE(qh->Find("p99")->num, qh->Find("p50")->num);
  // Per-subplan work counters.
  const obs::JsonValue* counters = metrics->Find("counters");
  bool has_subplan_work = false;
  for (const auto& [k, val] : counters->obj) {
    if (k.rfind("exec.subplan.work#", 0) == 0 && val.num > 0) {
      has_subplan_work = true;
    }
  }
  EXPECT_TRUE(has_subplan_work);
  EXPECT_GT(counters->Find("opt.pace_search.iterations")->num, 0.0);
  EXPECT_GT(counters->Find("cost.memo.hit")->num, 0.0);
  // Optimizer trace spans.
  const obs::JsonValue* spans = v.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->Find("opt.pace_search.run"), nullptr);
  EXPECT_GT(spans->Find("opt.pace_search.run")->Find("count")->num, 0.0);
  ASSERT_NE(spans->Find("exec.subplan.exec"), nullptr);
#endif
}

TEST(JsonExportTest, RuntimeOnOffProducesIdenticalResults) {
  TpchDb* db = Db();
  std::vector<QueryPlan> queries = {TpchQuery(db->catalog, 5, 0),
                                    TpchQuery(db->catalog, 8, 1)};
  std::vector<double> rel(queries.size(), 0.2);
  ApproachOptions opts;
  opts.max_pace = 8;

  obs::SetEnabled(true);
  Experiment ex_on(&db->catalog, &db->source, queries, rel, opts);
  ExperimentResult on = ex_on.Run(Approach::kIShare);

  obs::SetEnabled(false);
  Experiment ex_off(&db->catalog, &db->source, queries, rel, opts);
  ExperimentResult off = ex_off.Run(Approach::kIShare);
  obs::SetEnabled(true);

  // Instrumentation must not perturb any deterministic outcome (wall-clock
  // fields excluded by construction).
  EXPECT_DOUBLE_EQ(on.total_work, off.total_work);
  EXPECT_DOUBLE_EQ(on.est_total_work, off.est_total_work);
  ASSERT_EQ(on.queries.size(), off.queries.size());
  for (size_t i = 0; i < on.queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(on.queries[i].final_work, off.queries[i].final_work)
        << on.queries[i].name;
    EXPECT_EQ(on.queries[i].deadline_met, off.queries[i].deadline_met);
  }
}

TEST(JsonExportTest, WriteBenchJsonWritesFile) {
  std::string path = ::testing::TempDir() + "/ishare_export_test.json";
  Status st = WriteBenchJson(path, "{\"a\":1}");
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "{\"a\":1}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteBenchJson("/nonexistent-dir/x.json", "{}").ok());
}

}  // namespace
}  // namespace ishare
