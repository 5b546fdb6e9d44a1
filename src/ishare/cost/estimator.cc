#include "ishare/cost/estimator.h"

#include <algorithm>
#include <set>

#include "ishare/common/hash.h"
#include "ishare/obs/obs.h"

namespace ishare {

namespace {

// kSubplanInput child indices in preorder; parallel to the SimFlow order
// CompiledSubplan::Run expects.
void CollectInputLeaves(const PlanNodePtr& node, std::vector<int>* out) {
  if (node->kind == PlanKind::kSubplanInput) {
    out->push_back(node->input_subplan);
    return;
  }
  for (const PlanNodePtr& c : node->children) CollectInputLeaves(c, out);
}

}  // namespace

CostEstimator::CostEstimator(const SubplanGraph* graph, const Catalog* catalog,
                             ExecOptions opts, bool use_memo)
    : graph_(graph), catalog_(catalog), opts_(opts), use_memo_(use_memo) {
  CHECK(graph != nullptr && catalog != nullptr);
  hit_counter_ = &obs::Registry().GetCounter("cost.memo.hit");
  miss_counter_ = &obs::Registry().GetCounter("cost.memo.miss");
  estimate_counter_ = &obs::Registry().GetCounter("cost.estimate.calls");
  int n = graph->num_subplans();
  topo_ = graph->TopoChildrenFirst();
  closure_.resize(n);
  ancestors_.resize(n);
  queries_.resize(n);
  models_.resize(n);
  leaves_.resize(n);
  memo_.resize(n);
  if (!use_memo_) store_.resize(n);
  for (int i : topo_) {
    std::set<int> cl;
    cl.insert(i);
    for (int c : graph->subplan(i).children) {
      cl.insert(closure_[c].begin(), closure_[c].end());
    }
    closure_[i].assign(cl.begin(), cl.end());
    // Visiting i children-first keeps every ancestor list children-first.
    for (int s : closure_[i]) ancestors_[s].push_back(i);
    queries_[i] = graph->subplan(i).queries.ToIds();
  }
}

const CompiledSubplan& CostEstimator::Model(int subplan) {
  if (models_[subplan] == nullptr) {
    const Subplan& sp = graph_->subplan(subplan);
    std::vector<int> leaves;
    CollectInputLeaves(sp.root, &leaves);
    std::vector<SimInput> shapes;
    shapes.reserve(leaves.size());
    for (int c : leaves) {
      const CompiledSubplan& child = Model(c);
      SimInput in;
      in.queries = child.out_queries();
      in.profile = &child.out_profile();
      shapes.push_back(std::move(in));
    }
    models_[subplan] =
        std::make_unique<CompiledSubplan>(sp.root, *catalog_, shapes);
    leaves_[subplan] = std::move(leaves);
  }
  return *models_[subplan];
}

uint64_t CostEstimator::PrivateKey(int subplan,
                                   const PaceConfig& paces) const {
  uint64_t h = Mix64(static_cast<uint64_t>(subplan));
  for (int s : closure_[subplan]) {
    h = HashCombine(h, static_cast<uint64_t>(paces[s]));
  }
  return h;
}

const SimResult* CostEstimator::Find(int i, const PaceConfig& paces,
                                     uint64_t key) const {
  const std::vector<int>& cl = closure_[i];
  auto [it, end] = memo_[i].equal_range(key);
  for (; it != end; ++it) {
    const std::vector<int>& entry = it->second.closure_paces;
    bool same = true;
    for (size_t k = 0; k < cl.size() && same; ++k) {
      same = entry[k] == paces[cl[k]];
    }
    if (same) return &it->second.result;
  }
  return nullptr;
}

const SimResult* CostEstimator::Resolve(
    int i, const PaceConfig& paces,
    const std::vector<const SimResult*>& results) {
  uint64_t key = 0;
  if (use_memo_) {
    key = PrivateKey(i, paces);
    if (const SimResult* hit = Find(i, paces, key)) {
      ++hits_;
      return hit;
    }
  }
  ++misses_;
  const CompiledSubplan& model = Model(i);
  flows_.clear();
  for (int c : leaves_[i]) flows_.push_back(FlowOf(*results[c]));
  SimResult res = model.Run(paces[i], flows_, opts_);
  if (!use_memo_) {
    store_[i] = std::move(res);
    return &store_[i];
  }
  MemoEntry entry;
  entry.closure_paces.reserve(closure_[i].size());
  for (int s : closure_[i]) entry.closure_paces.push_back(paces[s]);
  entry.result = std::move(res);
  return &memo_[i].emplace(key, std::move(entry))->second.result;
}

const SimResult& CostEstimator::SubplanResult(int subplan,
                                              const PaceConfig& paces) {
  CHECK_EQ(static_cast<int>(paces.size()), graph_->num_subplans());
  if (use_memo_) {
    if (const SimResult* hit =
            Find(subplan, paces, PrivateKey(subplan, paces))) {
      ++hits_;
      return *hit;
    }
  }
  // Children-first over the subplan's closure.
  const std::vector<int>& cl = closure_[subplan];
  results_.assign(graph_->num_subplans(), nullptr);
  for (int i : topo_) {
    if (std::binary_search(cl.begin(), cl.end(), i)) {
      results_[i] = Resolve(i, paces, results_);
    }
  }
  return *results_[subplan];
}

void CostEstimator::FlushObsCounters() {
  if (hits_ > flushed_hits_) {
    hit_counter_->Add(static_cast<double>(hits_ - flushed_hits_));
    flushed_hits_ = hits_;
  }
  if (misses_ > flushed_misses_) {
    miss_counter_->Add(static_cast<double>(misses_ - flushed_misses_));
    flushed_misses_ = misses_;
  }
}

PlanCost CostEstimator::Sum(
    const std::vector<const SimResult*>& results) const {
  PlanCost cost;
  cost.query_final_work.assign(graph_->num_queries(), 0.0);
  for (int i = 0; i < graph_->num_subplans(); ++i) {
    cost.total_work += results[i]->private_total_work;
    for (QueryId q : queries_[i]) {
      cost.query_final_work[q] += results[i]->private_final_work;
    }
  }
  return cost;
}

PlanCost CostEstimator::Estimate(const PaceConfig& paces) {
  CHECK_EQ(static_cast<int>(paces.size()), graph_->num_subplans());
  estimate_counter_->Add(1);
  // Children first, so each subplan's inputs are resolved before it.
  results_.resize(graph_->num_subplans());
  for (int i : topo_) results_[i] = Resolve(i, paces, results_);
  if (use_memo_) {
    base_paces_ = paces;
    base_results_ = results_;
  }
  PlanCost cost = Sum(results_);
  FlushObsCounters();
  return cost;
}

void CostEstimator::Rebase(const PaceConfig& base) {
  if (base == base_paces_) return;
  // A subplan's result changes exactly when a pace in its closure does;
  // before the first estimate every subplan is resolved.
  int n = graph_->num_subplans();
  bool cold = base_results_.empty();
  base_results_.resize(n);
  dirty_.assign(n, cold ? 1 : 0);
  for (int s = 0; s < n && !cold; ++s) {
    if (base[s] == base_paces_[s]) continue;
    for (int a : ancestors_[s]) dirty_[a] = 1;
  }
  for (int i : topo_) {
    if (dirty_[i]) base_results_[i] = Resolve(i, base, base_results_);
  }
  base_paces_ = base;
}

PlanCost CostEstimator::EstimateWithPace(const PaceConfig& base, int subplan,
                                         int pace) {
  int n = graph_->num_subplans();
  CHECK_EQ(static_cast<int>(base.size()), n);
  CHECK(subplan >= 0 && subplan < n);
  cand_ = base;
  cand_[subplan] = pace;
  // No-memo ablation (Fig. 15): every estimate simulates the whole plan.
  if (!use_memo_) return Estimate(cand_);
  estimate_counter_->Add(1);
  Rebase(base);
  results_ = base_results_;
  for (int i : ancestors_[subplan]) results_[i] = Resolve(i, cand_, results_);
  PlanCost cost = Sum(results_);
  FlushObsCounters();
  return cost;
}

double EstimateStandaloneBatchWork(const QueryPlan& query,
                                   const Catalog& catalog, ExecOptions opts) {
  SubplanGraph g = SubplanGraph::Build({query});
  CostEstimator est(&g, &catalog, opts);
  PaceConfig ones(g.num_subplans(), 1);
  PlanCost c = est.Estimate(ones);
  return c.query_final_work[query.id];
}

}  // namespace ishare
