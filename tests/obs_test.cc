// Unit tests for ishare::obs — metric primitives, tracer, runtime enable
// switch, and the hand-rolled JSON writer/parser.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ishare/obs/json.h"
#include "ishare/obs/obs.h"

namespace ishare {
namespace obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry().Reset();
    GlobalTracer().Reset();
  }
  void TearDown() override {
    SetEnabled(true);
    Registry().Reset();
    GlobalTracer().Reset();
  }
};

TEST_F(ObsTest, CounterAddsAndSnapshots) {
  Counter& c = Registry().GetCounter("test.counter.adds");
  c.Add();
  c.Add(2.5);
#if ISHARE_OBS_ENABLED
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
#else
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
#endif
  EXPECT_EQ(&c, &Registry().GetCounter("test.counter.adds"));
  MetricsSnapshot snap = Registry().Snapshot();
  ASSERT_TRUE(snap.counters.count("test.counter.adds"));
#if ISHARE_OBS_ENABLED
  EXPECT_DOUBLE_EQ(snap.counters["test.counter.adds"], 3.5);
#endif
}

TEST_F(ObsTest, RuntimeDisableStopsMutations) {
  Counter& c = Registry().GetCounter("test.counter.disabled");
  Gauge& g = Registry().GetGauge("test.gauge.disabled");
  Histogram& h = Registry().GetHistogram("test.histo.disabled");
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  c.Add(10);
  g.Set(4.0);
  h.Observe(0.5);
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  EXPECT_EQ(h.Count(), 0);
  SetEnabled(true);
  c.Add(1);
#if ISHARE_OBS_ENABLED
  EXPECT_DOUBLE_EQ(c.Value(), 1.0);
#endif
}

TEST_F(ObsTest, CounterIsThreadSafeAndExact) {
  Counter& c = Registry().GetCounter("test.counter.mt");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
#if ISHARE_OBS_ENABLED
  EXPECT_DOUBLE_EQ(c.Value(), kThreads * kAdds);
#else
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
#endif
}

#if ISHARE_OBS_ENABLED

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
  // Bounds 1, 2, 4, 8: four finite buckets + overflow.
  Histogram h(Histogram::ExpBounds(1.0, 2.0, 4));
  for (int i = 0; i < 100; ++i) h.Observe(0.5);  // all in bucket [0, 1]
  EXPECT_EQ(h.Count(), 100);
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  h.Observe(100.0);  // overflow bucket
  EXPECT_EQ(h.Count(), 101);
  EXPECT_GE(h.Quantile(1.0), 8.0);
}

TEST_F(ObsTest, HistogramDropsNonFinite) {
  Histogram h(Histogram::ExpBounds(1.0, 2.0, 4));
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(1.5);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_EQ(h.Dropped(), 2);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.5);
}

TEST_F(ObsTest, HistogramNegativeClampsToZeroBucket) {
  Histogram h(Histogram::ExpBounds(1.0, 2.0, 4));
  h.Observe(-3.0);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_EQ(h.bucket_count(0), 1);
}

TEST_F(ObsTest, RegistryHistogramBoundsFixedByFirstRegistration) {
  Histogram& a =
      Registry().GetHistogram("test.histo.bounds", Histogram::ExpBounds(1, 2, 3));
  Histogram& b =
      Registry().GetHistogram("test.histo.bounds", Histogram::ExpBounds(5, 3, 7));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 3u);
}

TEST_F(ObsTest, TracerAggregatesByName) {
  GlobalTracer().Record("test.span.a", 0.5);
  GlobalTracer().Record("test.span.a", 1.5);
  GlobalTracer().Record("test.span.b", 0.25);
  auto snap = GlobalTracer().Snapshot();
  ASSERT_TRUE(snap.count("test.span.a"));
  EXPECT_EQ(snap["test.span.a"].count, 2);
  EXPECT_DOUBLE_EQ(snap["test.span.a"].total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(snap["test.span.a"].min_seconds, 0.5);
  EXPECT_DOUBLE_EQ(snap["test.span.a"].max_seconds, 1.5);
  EXPECT_EQ(snap["test.span.b"].count, 1);
}

TEST_F(ObsTest, ScopedSpanRecordsOnDestruction) {
  { ScopedSpan span("test.span.scoped"); }
  auto snap = GlobalTracer().Snapshot();
  ASSERT_TRUE(snap.count("test.span.scoped"));
  EXPECT_EQ(snap["test.span.scoped"].count, 1);
  EXPECT_GE(snap["test.span.scoped"].total_seconds, 0.0);
}

TEST_F(ObsTest, SnapshotComputesHistogramPercentiles) {
  Histogram& h = Registry().GetHistogram("test.histo.pct");
  for (int i = 0; i < 1000; ++i) h.Observe(1e-4);
  MetricsSnapshot snap = Registry().Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("test.histo.pct");
  EXPECT_EQ(hs.count, 1000);
  EXPECT_GT(hs.p50, 0.0);
  EXPECT_LE(hs.p50, hs.p95);
  EXPECT_LE(hs.p95, hs.p99);
}

#endif  // ISHARE_OBS_ENABLED

TEST(JsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Int(1);
  w.Key("b");
  w.BeginArray();
  w.Number(1.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("c");
  w.String("x");
  w.EndObject();
  ASSERT_TRUE(w.ok()) << w.error();
  EXPECT_EQ(w.Take(), R"({"a":1,"b":[1.5,true,null],"c":"x"})");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k");
  w.String("a\"b\\c\nd\te\x01"
           "f");
  w.EndObject();
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.Take(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriterTest, RejectsNonFiniteNumbers) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.BeginObject();
    w.Key("x");
    w.Number(bad);
    w.EndObject();
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.Take(), "");
  }
}

TEST(JsonWriterTest, RejectsStructuralMisuse) {
  {
    JsonWriter w;  // Key outside object
    w.BeginArray();
    w.Key("x");
    EXPECT_FALSE(w.ok());
  }
  {
    JsonWriter w;  // unclosed object
    w.BeginObject();
    EXPECT_EQ(w.Take(), "");
  }
  {
    JsonWriter w;  // value without key inside object
    w.BeginObject();
    w.Int(1);
    EXPECT_FALSE(w.ok());
  }
}

TEST(JsonWriterTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 1e-9, 123456.789, 0.1}) {
    std::string s = JsonWriter::FormatDouble(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(JsonParserTest, ParsesWriterOutputRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nums");
  w.BeginArray();
  w.Number(1.5);
  w.Int(-3);
  w.EndArray();
  w.Key("s");
  w.String("hi\nthere");
  w.Key("flag");
  w.Bool(false);
  w.Key("nothing");
  w.Null();
  w.EndObject();
  ASSERT_TRUE(w.ok());
  std::string doc = w.Take();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(doc, &v, &err)) << err;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  // Key order is preserved.
  ASSERT_EQ(v.obj.size(), 4u);
  EXPECT_EQ(v.obj[0].first, "nums");
  EXPECT_EQ(v.obj[1].first, "s");
  EXPECT_EQ(v.obj[2].first, "flag");
  EXPECT_EQ(v.obj[3].first, "nothing");
  const JsonValue* nums = v.Find("nums");
  ASSERT_NE(nums, nullptr);
  ASSERT_EQ(nums->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(nums->arr[0].num, 1.5);
  EXPECT_DOUBLE_EQ(nums->arr[1].num, -3.0);
  EXPECT_EQ(v.Find("s")->str, "hi\nthere");
  EXPECT_FALSE(v.Find("flag")->b);
  EXPECT_EQ(v.Find("nothing")->kind, JsonValue::Kind::kNull);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(ParseJson("{", &v, &err));
  EXPECT_FALSE(ParseJson("{\"a\":1,}", &v, &err));
  EXPECT_FALSE(ParseJson("[1] trailing", &v, &err));
  EXPECT_FALSE(ParseJson("NaN", &v, &err));
  EXPECT_FALSE(ParseJson("", &v, &err));
}

TEST(JsonParserTest, ParsesUnicodeEscapes) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson("\"a\\u00e9b\"", &v, &err)) << err;
  EXPECT_EQ(v.str, "a\xc3\xa9" "b");
}

}  // namespace
}  // namespace obs
}  // namespace ishare
