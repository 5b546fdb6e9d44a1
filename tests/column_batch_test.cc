// Column-batch layout (DESIGN.md §12.2): ColumnVector typed round-trips,
// SelectionVector edge cases (empty selection, the all-selected fast path
// that materializes no index array, sparse ascending construction), and
// ColumnBatch::FromDeltas/ToDeltas as an exact inverse pair, including
// deletes interleaved with updates in one batch; an ill-typed source is
// rejected, never coerced.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ishare/storage/column_batch.h"
#include "ishare/types/column.h"
#include "ishare/types/selection.h"

namespace ishare {
namespace {

// Bit-exact scalar equality: same runtime type, same payload bits. The
// cross-type numeric tolerance of Value::operator== is exactly what this
// suite must NOT use — a conversion may not even flip an int to an
// equal-valued double.
::testing::AssertionResult BitExactValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << "type " << DataTypeName(a.type()) << " vs "
           << DataTypeName(b.type());
  }
  switch (a.type()) {
    case DataType::kInt64:
      if (a.AsInt() != b.AsInt()) {
        return ::testing::AssertionFailure()
               << a.AsInt() << " vs " << b.AsInt();
      }
      return ::testing::AssertionSuccess();
    case DataType::kFloat64: {
      double x = a.AsDouble(), y = b.AsDouble();
      if (std::memcmp(&x, &y, sizeof(x)) != 0) {
        return ::testing::AssertionFailure() << x << " vs " << y << " (bits)";
      }
      return ::testing::AssertionSuccess();
    }
    case DataType::kString:
      if (a.AsString() != b.AsString()) {
        return ::testing::AssertionFailure()
               << a.AsString() << " vs " << b.AsString();
      }
      return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "bad type";
}

::testing::AssertionResult BitExactDeltas(const DeltaBatch& a,
                                          const DeltaBatch& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].weight != b[i].weight) {
      return ::testing::AssertionFailure()
             << "weight at " << i << ": " << a[i].weight << " vs "
             << b[i].weight;
    }
    if (a[i].qset.bits() != b[i].qset.bits()) {
      return ::testing::AssertionFailure()
             << "qset at " << i << ": " << a[i].qset.bits() << " vs "
             << b[i].qset.bits();
    }
    if (a[i].row.size() != b[i].row.size()) {
      return ::testing::AssertionFailure() << "row arity at " << i;
    }
    for (size_t c = 0; c < a[i].row.size(); ++c) {
      auto r = BitExactValue(a[i].row[c], b[i].row[c]);
      if (!r) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << c << ": " << r.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// ColumnVector / SelectionVector
// ---------------------------------------------------------------------------

TEST(ColumnVectorTest, TypedRoundTripAllThreeTypes) {
  std::vector<Value> vals = {Value(int64_t{-7}), Value(int64_t{0}),
                             Value(int64_t{1} << 40)};
  ColumnVector ci(DataType::kInt64);
  for (const Value& v : vals) ci.AppendValue(v);
  ASSERT_EQ(ci.size(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitExactValue(ci.GetValue(i), vals[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(ci.i64()[0], -7);

  ColumnVector cf(DataType::kFloat64);
  cf.AppendValue(Value(0.0));
  cf.AppendValue(Value(-2.5));
  EXPECT_EQ(cf.f64()[1], -2.5);
  EXPECT_TRUE(BitExactValue(cf.GetValue(0), Value(0.0)));

  ColumnVector cs(DataType::kString);
  cs.AppendValue(Value("ASIA"));
  cs.AppendValue(Value(""));
  EXPECT_EQ(cs.str()[0], "ASIA");
  EXPECT_TRUE(BitExactValue(cs.GetValue(1), Value("")));
}

TEST(ColumnVectorTest, AppendFromGathersByIndex) {
  ColumnVector src(DataType::kInt64);
  for (int64_t i = 0; i < 8; ++i) src.i64().push_back(i * 10);
  ColumnVector dst(DataType::kInt64);
  dst.AppendFrom(src, 5);
  dst.AppendFrom(src, 0);
  ASSERT_EQ(dst.size(), 2);
  EXPECT_EQ(dst.i64()[0], 50);
  EXPECT_EQ(dst.i64()[1], 0);
}

TEST(ColumnVectorTest, ApproxBytesTracksLogicalSizeDeterministically) {
  ColumnVector a(DataType::kInt64);
  ColumnVector b(DataType::kInt64);
  for (int i = 0; i < 100; ++i) a.AppendValue(Value(int64_t{i}));
  b.Reserve(1000);  // capacity must not count
  for (int i = 0; i < 100; ++i) b.AppendValue(Value(int64_t{i}));
  EXPECT_EQ(a.ApproxBytes(), b.ApproxBytes());
  EXPECT_GT(a.ApproxBytes(), 0);
}

TEST(SelectionVectorTest, AllSelectedFastPathMaterializesNoIndexArray) {
  SelectionVector s = SelectionVector::All(5);
  EXPECT_TRUE(s.is_all());
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 5);
  EXPECT_TRUE(s.indices().empty());  // the fast path's defining property
  std::vector<int32_t> seen;
  s.ForEach([&](int32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s[3], 3);
}

TEST(SelectionVectorTest, EmptySelection) {
  SelectionVector s = SelectionVector::None();
  EXPECT_FALSE(s.is_all());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  int calls = 0;
  s.ForEach([&](int32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // All(0) is also an empty selection (a zero-row batch stays "all").
  EXPECT_TRUE(SelectionVector::All(0).empty());
}

TEST(SelectionVectorTest, SparseSelectionIteratesAscending) {
  SelectionVector s = SelectionVector::FromIndices({1, 4, 7});
  EXPECT_FALSE(s.is_all());
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[2], 7);
  SelectionVector t = SelectionVector::None();
  s.ForEach([&](int32_t i) { t.Append(i); });
  EXPECT_EQ(t.indices(), s.indices());
}

// ---------------------------------------------------------------------------
// ColumnBatch conversion
// ---------------------------------------------------------------------------

Schema SalesSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"s", DataType::kString}});
}

// A batch exercising the full delta vocabulary in one run: inserts,
// a delete interleaved with the two halves of an update (delete+insert
// of the same key), and multi-weight tuples under different query sets.
DeltaBatch MixedDeltas() {
  DeltaBatch b;
  b.push_back({{Value(int64_t{1}), Value(10.5), Value("a")}, QuerySet(0b01), 1});
  b.push_back({{Value(int64_t{2}), Value(0.0), Value("b")}, QuerySet(0b11), 3});
  // Update of key 1 = delete old + insert new, with a delete of key 3
  // interleaved between the halves.
  b.push_back({{Value(int64_t{1}), Value(10.5), Value("a")}, QuerySet(0b01), -1});
  b.push_back({{Value(int64_t{3}), Value(-4.25), Value("")}, QuerySet(0b10), -2});
  b.push_back({{Value(int64_t{1}), Value(11.5), Value("a2")}, QuerySet(0b01), 1});
  return b;
}

TEST(ColumnBatchTest, FromDeltasToDeltasIsTheExactInverse) {
  Schema schema = SalesSchema();
  DeltaBatch in = MixedDeltas();
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, in, &cb));
  EXPECT_EQ(cb.num_rows(), 5);
  EXPECT_EQ(cb.num_selected(), 5);
  EXPECT_TRUE(cb.sel.is_all());
  ASSERT_EQ(cb.cols.size(), 3u);
  EXPECT_EQ(cb.cols[0].type(), DataType::kInt64);
  EXPECT_EQ(cb.cols[1].type(), DataType::kFloat64);
  EXPECT_EQ(cb.cols[2].type(), DataType::kString);
  EXPECT_EQ(cb.qbits[3], 0b10u);
  EXPECT_EQ(cb.weights[3], -2);
  EXPECT_TRUE(BitExactDeltas(cb.ToDeltas(), in));
}

TEST(ColumnBatchTest, ToDeltasEmitsOnlySelectedRowsInInputOrder) {
  Schema schema = SalesSchema();
  DeltaBatch in = MixedDeltas();
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, in, &cb));
  cb.sel = SelectionVector::FromIndices({0, 3, 4});
  DeltaBatch expect = {in[0], in[3], in[4]};
  EXPECT_TRUE(BitExactDeltas(cb.ToDeltas(), expect));
  cb.sel = SelectionVector::None();
  EXPECT_TRUE(cb.ToDeltas().empty());
  EXPECT_EQ(cb.num_rows(), 5);  // columns keep their physical rows
  EXPECT_EQ(cb.num_selected(), 0);
}

TEST(ColumnBatchTest, EmptySpanYieldsEmptyAllSelectedBatch) {
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(SalesSchema(), DeltaBatch{}, &cb));
  EXPECT_EQ(cb.num_rows(), 0);
  EXPECT_EQ(cb.num_selected(), 0);
  EXPECT_TRUE(cb.ToDeltas().empty());
}

TEST(ColumnBatchTest, IllTypedSourceIsRejectedNotCoerced) {
  Schema schema = SalesSchema();
  ColumnBatch cb;
  // Double where the schema says int: reject (the row operators would
  // coerce through AsDouble at each use site; silently lifting it would
  // change results).
  DeltaBatch wrong_type;
  wrong_type.push_back(
      {{Value(1.0), Value(2.0), Value("x")}, QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, wrong_type, &cb));
  // Wrong arity: reject.
  DeltaBatch wrong_arity;
  wrong_arity.push_back({{Value(int64_t{1})}, QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, wrong_arity, &cb));
  // A good prefix does not rescue a bad row later in the span.
  DeltaBatch mixed = MixedDeltas();
  mixed.push_back({{Value(int64_t{9}), Value("oops"), Value("y")},
                   QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, mixed, &cb));
}

}  // namespace
}  // namespace ishare
