// The row pump's copy contract (DESIGN.md §12): a tuple is copied once on
// its way through a subplan — when its leaf reads it out of the shared
// input buffer — and from there it moves: filters re-tag and drop in
// place, joins move new build rows into their store, and the root's batch
// moves into the subplan's output buffer.
//
// Copies are counted with a replaced global operator new over rows whose
// string column is too long for the small-string buffer, so copying a row
// costs exactly two allocations (its value vector and its string).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/exec/subplan_exec.h"

static std::atomic<int64_t> g_alloc_count{0};

// The replacement new is malloc-backed, so freeing in operator delete is
// correct; gcc cannot see through the replacement and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ishare {
namespace {

constexpr int kRows = 1000;
// Per-execution allocations that do not scale with the input (reserves,
// the output log's first growth, span bookkeeping).
constexpr int64_t kFixedAllocs = 32;

Schema RowSchema() {
  return Schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
}

Row LongRow(int k) {
  return Row{Value(int64_t{k}),
             Value(std::string(48, 'x') + std::to_string(k))};
}

int64_t Allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

TEST(RowPumpTest, FilterPipelineCopiesEachTupleOnce) {
  Schema schema = RowSchema();
  std::vector<Row> rows;
  for (int k = 0; k < kRows; ++k) rows.push_back(LongRow(k));
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable("t", schema, ComputeTableStats(schema, rows)).ok());
  StreamSource source;
  source.AddTable("t", schema, std::move(rows));

  QuerySet q0 = QuerySet::Single(0);
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Lt(Col("k"), Lit(kRows / 2));
  Subplan sp;
  sp.root = PlanNode::MakeFilter(PlanNode::MakeScan(catalog, "t", q0),
                                 std::move(preds), q0);
  sp.queries = q0;
  std::vector<std::unique_ptr<DeltaBuffer>> no_children;
  DeltaBuffer output(sp.root->output_schema, "subplan_0");
  SubplanExecutor exec(sp, &source, no_children, &output, ExecOptions());
  ASSERT_TRUE(source.AdvanceToStep(1, 1).ok());

  const int64_t before = Allocs();
  Result<ExecRecord> rec = exec.RunExecution();
  const int64_t allocs = Allocs() - before;
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->tuples_in, kRows);
  EXPECT_EQ(output.size(), kRows / 2);
  // The scan's copy of every base row is the only per-tuple cost: the
  // filter keeps its survivors in place and the output buffer takes them
  // by move. Copying the survivors once more would add kRows allocations.
  EXPECT_LE(allocs, 2 * kRows + kFixedAllocs);
  for (int64_t i = 0; i < output.size(); ++i) {
    const DeltaTuple& t = output.log()[static_cast<size_t>(i)];
    EXPECT_EQ(t.row, LongRow(static_cast<int>(i)));
    EXPECT_EQ(t.qset, q0);
  }
}

TEST(RowPumpTest, SubplanInputCopiesOnlyTheTuplesItKeeps) {
  Schema schema = RowSchema();
  std::vector<std::unique_ptr<DeltaBuffer>> children;
  children.push_back(std::make_unique<DeltaBuffer>(schema, "subplan_0"));
  // Even keys serve queries {0, 1}, odd keys only query 1.
  for (int k = 0; k < kRows; ++k) {
    children[0]->Append(DeltaTuple(
        LongRow(k), k % 2 == 0 ? QuerySet::FromIds({0, 1}) : QuerySet::Single(1),
        1));
  }
  QuerySet q0 = QuerySet::Single(0);
  Subplan sp;
  sp.root = PlanNode::MakeSubplanInput(0, schema, q0);
  sp.queries = q0;
  StreamSource source;
  DeltaBuffer output(schema, "subplan_1");
  SubplanExecutor exec(sp, &source, children, &output, ExecOptions());

  const int64_t before = Allocs();
  Result<ExecRecord> rec = exec.RunExecution();
  const int64_t allocs = Allocs() - before;
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->tuples_in, kRows);
  EXPECT_EQ(output.size(), kRows / 2);
  // Tuples masked away (σ_filter) are never copied.
  EXPECT_LE(allocs, 2 * (kRows / 2) + kFixedAllocs);
  for (int64_t i = 0; i < output.size(); ++i) {
    const DeltaTuple& t = output.log()[static_cast<size_t>(i)];
    EXPECT_EQ(t.row, LongRow(static_cast<int>(2 * i)));
    EXPECT_EQ(t.qset, q0);
  }
}

TEST(RowPumpTest, JoinBuildMovesRowsIntoItsStore) {
  // Left rows all carry key 0 and right rows key 1: nothing matches, and
  // every row of both inputs is stored in its side's one bucket.
  Schema left({{"k", DataType::kInt64}, {"s", DataType::kString}});
  Schema right({{"rk", DataType::kInt64}, {"rs", DataType::kString}});
  std::vector<Row> left_rows;
  std::vector<Row> right_rows;
  for (int i = 0; i < kRows; ++i) {
    Row l = LongRow(i);
    l[0] = Value(int64_t{0});
    left_rows.push_back(std::move(l));
    Row r = LongRow(i);
    r[0] = Value(int64_t{1});
    right_rows.push_back(std::move(r));
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("l", left, ComputeTableStats(left, left_rows))
                  .ok());
  ASSERT_TRUE(
      catalog.AddTable("r", right, ComputeTableStats(right, right_rows)).ok());
  StreamSource source;
  source.AddTable("l", left, std::move(left_rows));
  source.AddTable("r", right, std::move(right_rows));

  QuerySet q0 = QuerySet::Single(0);
  Subplan sp;
  sp.root = PlanNode::MakeJoin(PlanNode::MakeScan(catalog, "l", q0),
                               PlanNode::MakeScan(catalog, "r", q0), {"k"},
                               {"rk"}, JoinType::kInner, q0);
  sp.queries = q0;
  std::vector<std::unique_ptr<DeltaBuffer>> no_children;
  DeltaBuffer output(sp.root->output_schema, "subplan_0");
  SubplanExecutor exec(sp, &source, no_children, &output, ExecOptions());
  ASSERT_TRUE(source.AdvanceToStep(1, 1).ok());

  const int64_t before = Allocs();
  Result<ExecRecord> rec = exec.RunExecution();
  const int64_t allocs = Allocs() - before;
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->tuples_in, 2 * kRows);
  EXPECT_EQ(output.size(), 0);
  // Per stored row: the scan's copy (two allocations) and the key the
  // join extracts to probe (one). The store takes the row by move, so its
  // cost beyond that is its buckets' geometric growth; one more copy per
  // row would add 2 * (2 * kRows) allocations.
  EXPECT_LE(allocs, 3 * (2 * kRows) + 4 * kFixedAllocs);
}

}  // namespace
}  // namespace ishare
