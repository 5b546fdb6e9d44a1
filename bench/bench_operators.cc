// Engine micro-benchmarks (google-benchmark): per-operator throughput of
// the shared incremental operators, plus expression evaluation and LIKE
// matching. Not a paper figure; used to sanity-check that work-unit costs
// track wall time. Speed claims come from the end-to-end benchmark
// (perfbench/), not from these.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ishare/exec/aggregate.h"
#include "ishare/exec/hash_join.h"
#include "ishare/exec/phys_op.h"
#include "ishare/storage/delta_buffer.h"

// Replaceable global operator new with an allocation counter, so the
// zero-copy consume benchmark can assert that DeltaBuffer::ConsumeUpTo
// performs no allocation at all.
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

Schema TwoCol() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
}

DeltaBatch MakeBatch(int n, int key_range, QuerySet qs) {
  DeltaBatch b;
  b.reserve(n);
  for (int i = 0; i < n; ++i) {
    b.emplace_back(Row{Value(int64_t{i % key_range}),
                       Value(static_cast<double>(i) * 0.5)},
                   qs, 1);
  }
  return b;
}

void BM_FilterOp(benchmark::State& state) {
  Schema s = TwoCol();
  QuerySet qs = QuerySet::FromIds({0, 1});
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Gt(Col("v"), Lit(100.0));
  preds[1] = Lt(Col("v"), Lit(400.0));
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, qs);
  PlanNodePtr node = PlanNode::MakeFilter(stub, std::move(preds), qs);
  DeltaBatch in = MakeBatch(1024, 128, qs);
  for (auto _ : state) {
    FilterOp op(node.get(), s);
    benchmark::DoNotOptimize(op.Process(0, in));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_FilterOp);

void BM_HashJoinBuildProbe(benchmark::State& state) {
  Schema s = TwoCol();
  QuerySet qs = QuerySet::Single(0);
  PlanNodePtr l = PlanNode::MakeSubplanInput(0, s, qs);
  PlanNodePtr r = PlanNode::MakeSubplanInput(1, s, qs);
  PlanNodePtr node = PlanNode::MakeJoin(l, r, {"k"}, {"k"}, JoinType::kInner,
                                        qs);
  DeltaBatch left = MakeBatch(512, 256, qs);
  DeltaBatch right = MakeBatch(512, 256, qs);
  for (auto _ : state) {
    HashJoinOp op(node.get(), s, s);
    benchmark::DoNotOptimize(op.Process(0, left));
    benchmark::DoNotOptimize(op.Process(1, right));
  }
  state.SetItemsProcessed(state.iterations() * (left.size() + right.size()));
}
BENCHMARK(BM_HashJoinBuildProbe);

void BM_AggregateChurn(benchmark::State& state) {
  Schema s = TwoCol();
  QuerySet qs = QuerySet::Single(0);
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, qs);
  PlanNodePtr node = PlanNode::MakeAggregate(
      stub, {"k"}, {SumAgg(Col("v"), "total"), CountAgg("cnt")}, qs);
  int steps = static_cast<int>(state.range(0));
  DeltaBatch all = MakeBatch(1024, 64, qs);
  for (auto _ : state) {
    AggregateOp op(node.get(), s);
    size_t per = all.size() / steps;
    for (int k = 0; k < steps; ++k) {
      DeltaBatch slice(all.begin() + k * per, all.begin() + (k + 1) * per);
      op.Process(0, slice);
      benchmark::DoNotOptimize(op.EndExecution());
    }
  }
  state.SetItemsProcessed(state.iterations() * all.size());
}
BENCHMARK(BM_AggregateChurn)->Arg(1)->Arg(4)->Arg(16);

void BM_MaxRescan(benchmark::State& state) {
  Schema s = TwoCol();
  QuerySet qs = QuerySet::Single(0);
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, qs);
  PlanNodePtr node =
      PlanNode::MakeAggregate(stub, {}, {MaxAgg(Col("v"), "m")}, qs);
  for (auto _ : state) {
    AggregateOp op(node.get(), s);
    // Insert ascending values and repeatedly delete the max.
    for (int i = 0; i < 256; ++i) {
      op.Process(0, {DeltaTuple(Row{Value(int64_t{0}),
                                    Value(static_cast<double>(i))},
                                qs, 1)});
    }
    op.EndExecution();
    for (int i = 255; i >= 128; --i) {
      op.Process(0, {DeltaTuple(Row{Value(int64_t{0}),
                                    Value(static_cast<double>(i))},
                                qs, -1)});
      benchmark::DoNotOptimize(op.EndExecution());
    }
  }
}
BENCHMARK(BM_MaxRescan);

void BM_ConsumeZeroCopy(benchmark::State& state) {
  QuerySet qs = QuerySet::Single(0);
  DeltaBuffer buf(TwoCol(), "zc");
  buf.AppendBatch(MakeBatch(4096, 64, qs));
  for (auto _ : state) {
    state.PauseTiming();
    int c = buf.RegisterConsumer();
    state.ResumeTiming();
    int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    DeltaSpan span = buf.ConsumeUpTo(c, 4096).value();
    benchmark::DoNotOptimize(span.size());
    int64_t after = g_alloc_count.load(std::memory_order_relaxed);
    CHECK_EQ(before, after) << "ConsumeUpTo must be zero-copy/zero-alloc";
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ConsumeZeroCopy);

void BM_ProjectOp(benchmark::State& state) {
  Schema s = TwoCol();
  QuerySet qs = QuerySet::Single(0);
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, qs);
  std::vector<NamedExpr> projs;
  projs.push_back({Col("k"), "k"});
  projs.push_back({Add(Mul(Col("v"), Lit(2.0)), Col("k")), "w"});
  PlanNodePtr node = PlanNode::MakeProject(stub, std::move(projs), qs);
  DeltaBatch in = MakeBatch(1024, 128, qs);
  ProjectOp op(node.get(), s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.Process(0, in));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_ProjectOp);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "carefully final ironic special packages requests";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, "%special%requests%"));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_CompiledExprEval(benchmark::State& state) {
  Schema s = TwoCol();
  CompiledExpr e = CompiledExpr::Compile(
      And(Gt(Col("v"), Lit(10.0)), Lt(Mul(Col("v"), Lit(2.0)), Lit(900.0))),
      s);
  Row r{Value(int64_t{1}), Value(123.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.EvalBool(r));
  }
}
BENCHMARK(BM_CompiledExprEval);

}  // namespace
}  // namespace ishare

BENCHMARK_MAIN();
