#include "ishare/opt/decomposition.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <sstream>

#include "ishare/obs/obs.h"

namespace ishare {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// kSubplanInput child indices in preorder (SimInput order).
void CollectInputLeaves(const PlanNodePtr& node, std::vector<int>* out) {
  if (node->kind == PlanKind::kSubplanInput) {
    out->push_back(node->input_subplan);
    return;
  }
  for (const PlanNodePtr& c : node->children) CollectInputLeaves(c, out);
}

// Child subplan `c`'s whole-window output under `paces`, as its parent's
// SimInput. The profile is borrowed from `est`'s compiled model.
SimInput SubplanOutput(CostEstimator* est, int c, const PaceConfig& paces) {
  const SimResult& r = est->SubplanResult(c, paces);
  SimInput in;
  in.card = r.out_card;
  in.deletes = r.out_deletes;
  in.per_query = r.out_per_query;
  const CompiledSubplan& model = est->Model(c);
  in.queries = model.out_queries();
  in.profile = &model.out_profile();
  return in;
}

int FindPartIndex(const std::vector<QuerySet>& parts, QuerySet subset) {
  for (size_t j = 0; j < parts.size(); ++j) {
    if (parts[j].ContainsAll(subset)) return static_cast<int>(j);
  }
  CHECK(false) << "no part contains " << subset.ToString();
  return -1;
}

void FixInputLeaves(const PlanNodePtr& node,
                    const std::vector<std::vector<QuerySet>>& parts,
                    const std::vector<std::vector<int>>& new_index,
                    QuerySet part) {
  if (node->kind == PlanKind::kSubplanInput) {
    int old_child = node->input_subplan;
    int j = FindPartIndex(parts[old_child], part);
    node->input_subplan = new_index[old_child][j];
    return;
  }
  for (const PlanNodePtr& c : node->children) {
    FixInputLeaves(c, parts, new_index, part);
  }
}

int CountInputLeafRefs(const PlanNodePtr& node, int target) {
  if (node->kind == PlanKind::kSubplanInput) {
    return node->input_subplan == target ? 1 : 0;
  }
  int n = 0;
  for (const PlanNodePtr& c : node->children) {
    n += CountInputLeafRefs(c, target);
  }
  return n;
}

// Replaces the unique kSubplanInput leaf referencing `target` in the tree
// below `node` with `replacement`.
bool ReplaceInputLeaf(const PlanNodePtr& node, int target,
                      const PlanNodePtr& replacement) {
  for (PlanNodePtr& c : node->children) {
    if (c->kind == PlanKind::kSubplanInput && c->input_subplan == target) {
      c = replacement;
      return true;
    }
    if (ReplaceInputLeaf(c, target, replacement)) return true;
  }
  return false;
}

void RemapInputLeaves(const PlanNodePtr& node, const std::vector<int>& remap) {
  if (node->kind == PlanKind::kSubplanInput) {
    CHECK_GE(remap[node->input_subplan], 0) << "leaf references removed subplan";
    node->input_subplan = remap[node->input_subplan];
    return;
  }
  for (const PlanNodePtr& c : node->children) RemapInputLeaves(c, remap);
}

// Removes subplan `x` from `g` (after its unique parent inlined its tree).
SubplanGraph RemoveSubplan(const SubplanGraph& g, int x, PaceConfig* paces) {
  std::vector<int> remap(g.num_subplans(), -1);
  SubplanGraph out;
  out.set_num_queries(g.num_queries());
  PaceConfig np;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (i == x) continue;
    remap[i] = out.AddSubplan(g.subplan(i));
    np.push_back((*paces)[i]);
  }
  for (int i = 0; i < out.num_subplans(); ++i) {
    RemapInputLeaves(out.subplan(i).root, remap);
  }
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    int r = g.query_root(q);
    CHECK_NE(r, x) << "cannot remove a query root";
    out.SetQueryRoot(q, remap[r]);
  }
  out.RecomputeEdges();
  *paces = np;
  return out;
}

}  // namespace

SubplanGraph ApplySplit(const SubplanGraph& graph, int s,
                        const std::vector<QuerySet>& split,
                        const PaceConfig& old_paces, PaceConfig* init_paces) {
  int n = graph.num_subplans();
  CHECK(s >= 0 && s < n);
  CHECK_GE(split.size(), 1u);

  // 1. Induced query partition of every subplan: start with the split at s
  // and refine each subplan by its children's partitions (children-first,
  // so ancestors of s pick up the refinement transitively). This realizes
  // the recursive parent-splitting of Fig. 8.
  std::vector<std::vector<QuerySet>> parts(n);
  for (int i = 0; i < n; ++i) parts[i] = {graph.subplan(i).queries};
  parts[s] = split;
  for (int i : graph.TopoChildrenFirst()) {
    for (int c : graph.subplan(i).children) {
      std::vector<QuerySet> refined;
      for (QuerySet p : parts[i]) {
        for (QuerySet cp : parts[c]) {
          QuerySet x = p.Intersect(cp);
          if (!x.empty()) refined.push_back(x);
        }
      }
      parts[i] = std::move(refined);
    }
  }

  // 2. Materialize the new subplans (children-first so leaf targets exist).
  SubplanGraph out;
  out.set_num_queries(graph.num_queries());
  std::vector<std::vector<int>> new_index(n);
  PaceConfig ip;
  for (int i : graph.TopoChildrenFirst()) {
    new_index[i].resize(parts[i].size());
    for (size_t k = 0; k < parts[i].size(); ++k) {
      QuerySet part = parts[i][k];
      Subplan sp;
      sp.root = PlanNode::CloneRestricted(graph.subplan(i).root, part);
      FixInputLeaves(sp.root, parts, new_index, part);
      sp.queries = part;
      int idx = out.AddSubplan(std::move(sp));
      new_index[i][k] = idx;
      ip.push_back(old_paces[i]);
    }
  }

  // 3. Query roots land in the part containing the query.
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    int r = graph.query_root(q);
    if (r < 0) continue;
    int j = FindPartIndex(parts[r], QuerySet::Single(q));
    out.SetQueryRoot(q, new_index[r][j]);
  }
  out.RecomputeEdges();

  // 4. Keep the initial configuration eager-or-equal and consistent:
  // children never lag behind parents.
  for (int i : out.TopoParentsFirst()) {
    for (int c : out.subplan(i).children) {
      ip[c] = std::max(ip[c], ip[i]);
    }
  }

  // 5. Merge chains: a non-root subplan with exactly one parent and the
  // same query set is inlined into that parent (Fig. 8, right).
  bool merged = true;
  while (merged) {
    merged = false;
    for (int x = 0; x < out.num_subplans() && !merged; ++x) {
      const Subplan& sx = out.subplan(x);
      if (!sx.root_of.empty() || sx.parents.size() != 1) continue;
      int p = sx.parents[0];
      if (!(out.subplan(p).queries == sx.queries)) continue;
      if (CountInputLeafRefs(out.subplan(p).root, x) != 1) continue;
      CHECK(ReplaceInputLeaf(out.subplan(p).root, x, sx.root));
      ip[p] = std::max(ip[p], ip[x]);
      out = RemoveSubplan(out, x, &ip);
      merged = true;
    }
  }

  *init_paces = ip;
  return out;
}

Decomposer::Decomposer(const Catalog* catalog,
                       std::vector<double> abs_constraints, ExecOptions exec,
                       DecomposerOptions opts)
    : catalog_(catalog),
      constraints_(std::move(abs_constraints)),
      exec_(exec),
      opts_(opts) {
  CHECK(catalog != nullptr);
}

void Decomposer::ComputeLocalConstraints(const SubplanGraph& graph,
                                         CostEstimator* est) {
  // Per-query standalone batch denominators: the cost of running query q
  // alone in one batch, distributed over its subplans.
  int n = graph.num_subplans();
  PaceConfig ones(n, 1);
  local_constraints_.assign(n, {});
  std::vector<double> denom(graph.num_queries(), 0.0);
  std::vector<std::map<QueryId, double>> cost_sq(n);
  for (int s : graph.TopoChildrenFirst()) {
    const Subplan& sp = graph.subplan(s);
    std::vector<int> leaves;
    CollectInputLeaves(sp.root, &leaves);
    std::vector<SimInput> outputs;
    for (int c : leaves) outputs.push_back(SubplanOutput(est, c, ones));
    for (QueryId q : sp.queries.ToIds()) {
      std::vector<SimInput> inputs;
      for (const SimInput& out : outputs) {
        inputs.push_back(RestrictSimInput(out, QuerySet::Single(q)));
      }
      // One restricted tree, compiled and run once at pace 1.
      PlanNodePtr tree =
          PlanNode::CloneRestricted(sp.root, QuerySet::Single(q));
      SimResult r = SimulateSubplan(tree, *catalog_, 1, inputs, exec_);
      cost_sq[s][q] = r.private_total_work;
      denom[q] += r.private_total_work;
    }
  }
  for (int s = 0; s < n; ++s) {
    for (const auto& [q, c] : cost_sq[s]) {
      double frac = denom[q] > 0 ? c / denom[q] : 1.0;
      local_constraints_[s][q] = constraints_[q] * frac;
    }
  }
}

Decomposer::LocalProblem Decomposer::BuildLocalProblem(
    const SubplanGraph& graph, CostEstimator* est, const PaceConfig& paces,
    int s) {
  const Subplan& sp = graph.subplan(s);
  LocalProblem prob;
  prob.queries = sp.queries.ToIds();
  prob.root = sp.root;
  std::vector<int> leaves;
  CollectInputLeaves(sp.root, &leaves);
  for (int c : leaves) prob.inputs.push_back(SubplanOutput(est, c, paces));
  CHECK_LT(static_cast<size_t>(s), local_constraints_.size());
  prob.local_constraints = local_constraints_[s];
  return prob;
}

Decomposer::PartitionEval Decomposer::EvaluatePartition(
    const LocalProblem& prob, QuerySet part, int start_pace) {
  double min_s = kInf;
  for (QueryId q : part.ToIds()) {
    auto it = prob.local_constraints.find(q);
    double s = (it != prob.local_constraints.end()) ? it->second
                                                    : constraints_[q];
    min_s = std::min(min_s, s);
  }

  PlanNodePtr tree = PlanNode::CloneRestricted(prob.root, part);
  std::vector<SimInput> inputs;
  inputs.reserve(prob.inputs.size());
  for (const SimInput& in : prob.inputs) {
    inputs.push_back(RestrictSimInput(in, part));
  }

  // The partition's tree is compiled at the first pace the memo does not
  // hold and reused for the rest of the pace loop.
  std::unique_ptr<CompiledSubplan> model;
  std::vector<SimFlow> flows;
  auto simulate = [&](int pace) -> std::pair<double, double> {
    auto key = std::make_pair(part, pace);
    auto it = partition_memo_.find(key);
    if (it != partition_memo_.end()) return it->second;
    if (model == nullptr) {
      model = std::make_unique<CompiledSubplan>(tree, *catalog_, inputs);
      for (const SimInput& in : inputs) flows.push_back(FlowOf(in));
    }
    SimResult r = model->Run(pace, flows, exec_);
    std::pair<double, double> work{r.private_total_work,
                                   r.private_final_work};
    partition_memo_.emplace(key, work);
    return work;
  };

  // Selected pace R*: the laziest pace meeting the partition's lowest local
  // final work constraint. Monotonic in merges, so the search starts from
  // the merged partitions' larger selected pace (Sec. 4.1.2).
  PartitionEval ev;
  for (int pace = std::max(1, start_pace); pace <= opts_.max_pace; ++pace) {
    auto [wpt, wf] = simulate(pace);
    ev.selected_pace = pace;
    ev.partial_total_work = wpt;
    if (wf <= min_s + kEps) return ev;
  }
  return ev;  // constraint unreachable: laziest-possible at max pace
}

std::vector<QuerySet> Decomposer::FindSplit(const LocalProblem& prob,
                                            DecomposeStats* stats) {
  obs::ScopedSpan cluster_span("opt.decompose.cluster");
  // Safety valve for brute force: fall back to clustering beyond this many
  // queries (Bell numbers explode).
  constexpr int kBruteForceMaxQueries = 9;
  if (opts_.brute_force &&
      static_cast<int>(prob.queries.size()) <= kBruteForceMaxQueries) {
    return FindSplitBruteForce(prob, stats);
  }
  // Greedy bottom-up clustering driven by sharing benefit (Eq. 4).
  std::vector<QuerySet> parts;
  std::vector<PartitionEval> evals;
  for (QueryId q : prob.queries) {
    parts.push_back(QuerySet::Single(q));
    evals.push_back(EvaluatePartition(prob, parts.back(), 1));
    ++stats->partitions_evaluated;
  }
  while (parts.size() > 1) {
    double best_benefit = 0;
    int bi = -1, bj = -1;
    PartitionEval best_eval;
    QuerySet best_part;
    for (size_t i = 0; i < parts.size(); ++i) {
      for (size_t j = i + 1; j < parts.size(); ++j) {
        QuerySet merged = parts[i].Union(parts[j]);
        int start =
            std::max(evals[i].selected_pace, evals[j].selected_pace);
        PartitionEval ev = EvaluatePartition(prob, merged, start);
        ++stats->partitions_evaluated;
        double benefit = evals[i].partial_total_work +
                         evals[j].partial_total_work -
                         ev.partial_total_work;
        if (benefit > best_benefit + kEps) {
          best_benefit = benefit;
          bi = static_cast<int>(i);
          bj = static_cast<int>(j);
          best_eval = ev;
          best_part = merged;
        }
      }
    }
    if (bi < 0) break;  // no positive sharing benefit left
    parts[bi] = best_part;
    evals[bi] = best_eval;
    parts.erase(parts.begin() + bj);
    evals.erase(evals.begin() + bj);
  }
  return parts;
}

std::vector<QuerySet> Decomposer::FindSplitBruteForce(const LocalProblem& prob,
                                                      DecomposeStats* stats) {
  int m = static_cast<int>(prob.queries.size());
  std::vector<QuerySet> best;
  double best_cost = kInf;
  // Enumerate set partitions via restricted growth strings.
  std::vector<int> assign(m, 0);
  std::function<void(int, int)> rec = [&](int i, int max_block) {
    if (i == m) {
      std::vector<QuerySet> parts(max_block);
      for (int k = 0; k < m; ++k) parts[assign[k]].Add(prob.queries[k]);
      double total = 0;
      for (QuerySet p : parts) {
        total += EvaluatePartition(prob, p, 1).partial_total_work;
        ++stats->partitions_evaluated;
      }
      if (total < best_cost) {
        best_cost = total;
        best = parts;
      }
      return;
    }
    for (int b = 0; b <= max_block; ++b) {
      assign[i] = b;
      rec(i + 1, std::max(max_block, b + 1));
    }
  };
  rec(0, 0);
  return best;
}

namespace {

// Cuts subplan `s` at the BFS prefix of `prefix_len` operators (partial
// decomposition, Sec. 4.3): the prefix stays as the root part; each
// dangling subtree becomes a separate child subplan with the same query
// set. Returns the new graph and the root part's index.
SubplanGraph CutSubplan(const SubplanGraph& g, int s, int prefix_len,
                        const PaceConfig& old_paces, PaceConfig* init_paces,
                        int* root_part_index) {
  const Subplan& sp = g.subplan(s);
  PlanNodePtr root = PlanNode::CloneRestricted(sp.root, sp.queries);

  // BFS order over operators (kSubplanInput leaves are not operators).
  std::vector<PlanNodePtr> bfs;
  std::deque<PlanNodePtr> queue{root};
  while (!queue.empty()) {
    PlanNodePtr n = queue.front();
    queue.pop_front();
    if (n->kind == PlanKind::kSubplanInput) continue;
    bfs.push_back(n);
    for (const PlanNodePtr& c : n->children) queue.push_back(c);
  }
  CHECK(prefix_len >= 1 && prefix_len < static_cast<int>(bfs.size()));
  std::set<const PlanNode*> prefix;
  for (int i = 0; i < prefix_len; ++i) prefix.insert(bfs[i].get());

  SubplanGraph out;
  out.set_num_queries(g.num_queries());
  PaceConfig ip;
  // Copy all existing subplans (trees shared; only the new root tree is a
  // fresh clone). Indices are preserved for them.
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (i == s) {
      Subplan placeholder;  // filled below once child parts exist
      out.AddSubplan(placeholder);
      ip.push_back(old_paces[i]);
      continue;
    }
    out.AddSubplan(g.subplan(i));
    ip.push_back(old_paces[i]);
  }

  // Detach dangling subtrees into child subplans.
  std::function<void(const PlanNodePtr&)> detach = [&](const PlanNodePtr& n) {
    if (n->kind == PlanKind::kSubplanInput) return;
    for (PlanNodePtr& c : n->children) {
      if (c->kind == PlanKind::kSubplanInput) continue;
      if (prefix.count(c.get()) > 0) {
        detach(c);
        continue;
      }
      Schema child_schema = c->output_schema;
      Subplan child_sp;
      child_sp.root = c;
      child_sp.queries = sp.queries;
      int idx = out.AddSubplan(std::move(child_sp));
      ip.push_back(old_paces[s]);
      c = PlanNode::MakeSubplanInput(idx, std::move(child_schema),
                                     sp.queries);
    }
  };
  detach(root);

  Subplan root_sp;
  root_sp.root = root;
  root_sp.queries = sp.queries;
  *out.mutable_subplan(s) = std::move(root_sp);

  for (QueryId q = 0; q < g.num_queries(); ++q) {
    int r = g.query_root(q);
    if (r >= 0) out.SetQueryRoot(q, r);
  }
  out.RecomputeEdges();
  *init_paces = ip;
  *root_part_index = s;
  return out;
}

}  // namespace

DecomposeResult Decomposer::Optimize(const SubplanGraph& graph,
                                     const PaceConfig& paces) {
  obs::ScopedSpan opt_span("opt.decompose.run");
  auto start_time = std::chrono::steady_clock::now();
  auto deadline_hit = [&]() {
    if (opts_.deadline_seconds <= 0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time)
               .count() > opts_.deadline_seconds;
  };
  auto cur_graph = std::make_unique<SubplanGraph>(graph);
  auto est = std::make_unique<CostEstimator>(cur_graph.get(), catalog_, exec_,
                                             opts_.memoized_estimator);
  DecomposeResult res;
  res.paces = paces;
  res.cost = est->Estimate(paces);
  ComputeLocalConstraints(*cur_graph, est.get());

  std::set<std::string> tried;
  auto subplan_key = [](const Subplan& sp, const char* tag) {
    std::ostringstream os;
    os << tag << sp.queries.ToString() << "|" << sp.root->FullSignature();
    return os.str();
  };

  // Upper bound on adopted rewrites (each strictly lowers total work).
  constexpr int kMaxRounds = 32;
  int rounds_run = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    obs::ScopedSpan round_span("opt.decompose.round");
    ++rounds_run;
    bool adopted = false;
    if (deadline_hit()) {
      res.timed_out = true;
      break;
    }
    for (int s : cur_graph->TopoParentsFirst()) {
      if (deadline_hit()) {
        res.timed_out = true;
        break;
      }
      const Subplan& sp = cur_graph->subplan(s);
      if (sp.queries.size() < 2) continue;

      // --- Full-subplan decomposition ---
      std::string key = subplan_key(sp, "full:");
      if (tried.insert(key).second) {
        ++res.stats.splits_considered;
        partition_memo_.clear();
        LocalProblem prob =
            BuildLocalProblem(*cur_graph, est.get(), res.paces, s);
        std::vector<QuerySet> split = FindSplit(prob, &res.stats);
        if (split.size() > 1) {
          PaceConfig init;
          SubplanGraph ng = ApplySplit(*cur_graph, s, split, res.paces, &init);
          CHECK(ng.Validate().ok()) << ng.ToString();
          auto ng_holder = std::make_unique<SubplanGraph>(std::move(ng));
          auto nest = std::make_unique<CostEstimator>(
              ng_holder.get(), catalog_, exec_, opts_.memoized_estimator);
          PaceOptimizer po(nest.get(), constraints_,
                           PaceOptimizerOptions{opts_.max_pace});
          PaceSearchResult r = po.RefineDecreasing(init);
          if (r.cost.total_work < res.cost.total_work - kEps) {
            cur_graph = std::move(ng_holder);
            est = std::move(nest);
            res.paces = r.paces;
            res.cost = r.cost;
            ++res.stats.splits_adopted;
            ComputeLocalConstraints(*cur_graph, est.get());
            adopted = true;
            break;
          }
        }
      }

      // --- Partial decomposition (Sec. 4.3) ---
      if (!opts_.enable_partial) continue;
      int ops = CountOperators(sp.root);
      if (ops < 2) continue;
      bool partial_adopted = false;
      for (int len = 1; len < ops && !partial_adopted; ++len) {
        std::string pkey =
            subplan_key(sp, ("part" + std::to_string(len) + ":").c_str());
        if (!tried.insert(pkey).second) continue;
        ++res.stats.splits_considered;
        PaceConfig cut_init;
        int root_part = -1;
        SubplanGraph cut = CutSubplan(*cur_graph, s, len, res.paces,
                                      &cut_init, &root_part);
        if (cut.Validate().ok() == false) continue;
        auto cut_holder = std::make_unique<SubplanGraph>(std::move(cut));
        auto cut_est = std::make_unique<CostEstimator>(
            cut_holder.get(), catalog_, exec_, opts_.memoized_estimator);
        // Local constraints for the cut graph.
        ComputeLocalConstraints(*cut_holder, cut_est.get());
        partition_memo_.clear();
        LocalProblem prob = BuildLocalProblem(*cut_holder, cut_est.get(),
                                              cut_init, root_part);
        std::vector<QuerySet> split = FindSplit(prob, &res.stats);
        if (split.size() <= 1) continue;
        PaceConfig init;
        SubplanGraph ng =
            ApplySplit(*cut_holder, root_part, split, cut_init, &init);
        CHECK(ng.Validate().ok()) << ng.ToString();
        auto ng_holder = std::make_unique<SubplanGraph>(std::move(ng));
        auto nest = std::make_unique<CostEstimator>(
            ng_holder.get(), catalog_, exec_, opts_.memoized_estimator);
        PaceOptimizer po(nest.get(), constraints_,
                         PaceOptimizerOptions{opts_.max_pace});
        PaceSearchResult r = po.RefineDecreasing(init);
        if (r.cost.total_work < res.cost.total_work - kEps) {
          cur_graph = std::move(ng_holder);
          est = std::move(nest);
          res.paces = r.paces;
          res.cost = r.cost;
          ++res.stats.splits_adopted;
          ++res.stats.partial_splits_adopted;
          ComputeLocalConstraints(*cur_graph, est.get());
          partial_adopted = true;
          adopted = true;
        }
      }
      if (adopted) break;
    }
    if (!adopted) break;
  }

  obs::Registry().GetCounter("opt.decompose.rounds").Add(rounds_run);
  obs::Registry()
      .GetCounter("opt.decompose.splits_considered")
      .Add(res.stats.splits_considered);
  obs::Registry()
      .GetCounter("opt.decompose.splits_adopted")
      .Add(res.stats.splits_adopted);
  obs::Registry()
      .GetCounter("opt.decompose.partitions_evaluated")
      .Add(static_cast<double>(res.stats.partitions_evaluated));

  // Re-derive local constraints for the caller? Not needed; return plan.
  res.graph = std::move(*cur_graph);
  return res;
}

}  // namespace ishare
