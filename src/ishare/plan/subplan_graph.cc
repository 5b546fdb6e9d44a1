#include "ishare/plan/subplan_graph.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace ishare {

namespace {

// Counts parents of each DAG node reachable from the roots.
void CountParents(const std::vector<QueryPlan>& queries,
                  std::unordered_map<const PlanNode*, int>* parent_count) {
  std::unordered_set<const PlanNode*> visited;
  std::function<void(const PlanNodePtr&)> visit = [&](const PlanNodePtr& n) {
    if (!visited.insert(n.get()).second) return;
    for (const PlanNodePtr& c : n->children) {
      (*parent_count)[c.get()] += 1;
      visit(c);
    }
  };
  for (const QueryPlan& q : queries) {
    CHECK(q.root != nullptr);
    visit(q.root);
  }
}

}  // namespace

SubplanGraph SubplanGraph::Build(
    const std::vector<QueryPlan>& queries,
    const std::function<bool(const PlanNode&)>& extra_cut) {
  SubplanGraph g;
  int max_q = -1;
  for (const QueryPlan& q : queries) {
    max_q = std::max(max_q, q.id);
    g.live_queries_.Add(q.id);
  }
  g.num_queries_ = max_q + 1;
  g.query_roots_.assign(g.num_queries_, -1);

  std::unordered_map<const PlanNode*, int> parent_count;
  CountParents(queries, &parent_count);

  // A node is a cut point (subplan root) if it has >1 parent or is the root
  // of some query.
  std::unordered_set<const PlanNode*> cut;
  for (const auto& [node, cnt] : parent_count) {
    if (cnt > 1) cut.insert(node);
  }
  for (const QueryPlan& q : queries) cut.insert(q.root.get());
  if (extra_cut != nullptr) {
    std::unordered_set<const PlanNode*> visited;
    std::function<void(const PlanNodePtr&)> mark = [&](const PlanNodePtr& n) {
      if (!visited.insert(n.get()).second) return;
      if (extra_cut(*n)) cut.insert(n.get());
      for (const PlanNodePtr& c : n->children) mark(c);
    };
    for (const QueryPlan& q : queries) mark(q.root);
  }

  // Assign subplan indices in children-first order and build each tree by
  // deep-copying until the next cut point, which becomes a kSubplanInput.
  std::unordered_map<const PlanNode*, int> subplan_of;

  std::function<PlanNodePtr(const PlanNodePtr&)> copy_tree;
  std::function<int(const PlanNodePtr&)> build_subplan;

  copy_tree = [&](const PlanNodePtr& n) -> PlanNodePtr {
    auto fresh = std::make_shared<PlanNode>(*n);
    fresh->children.clear();
    for (const PlanNodePtr& c : n->children) {
      if (cut.count(c.get()) > 0) {
        int idx = build_subplan(c);
        // The input leaf carries the *consuming* subplan's query set (the
        // child subplan's set can be wider); SubplanInputOp masks pulled
        // tuples down to it.
        fresh->children.push_back(
            PlanNode::MakeSubplanInput(idx, c->output_schema, n->queries));
      } else {
        fresh->children.push_back(copy_tree(c));
      }
    }
    return fresh;
  };

  build_subplan = [&](const PlanNodePtr& n) -> int {
    auto it = subplan_of.find(n.get());
    if (it != subplan_of.end()) return it->second;
    Subplan sp;
    sp.root = copy_tree(n);
    sp.queries = n->queries;
    int idx = g.AddSubplan(std::move(sp));
    subplan_of[n.get()] = idx;
    return idx;
  };

  for (const QueryPlan& q : queries) {
    CHECK(q.root->queries.Contains(q.id))
        << "query " << q.name << " declares id " << q.id
        << " but its plan nodes carry " << q.root->queries.ToString()
        << " (was the id changed after building the plan?)";
    int idx = build_subplan(q.root);
    g.query_roots_[q.id] = idx;
    g.subplans_[idx].root_of.Add(q.id);
  }

  g.RecomputeEdges();
  return g;
}

void SubplanGraph::SetQueryRoot(QueryId q, int subplan_index) {
  CHECK(q >= 0);
  if (q >= static_cast<int>(query_roots_.size())) {
    query_roots_.resize(q + 1, -1);
    num_queries_ = std::max(num_queries_, q + 1);
  }
  query_roots_[q] = subplan_index;
  if (subplan_index >= 0) live_queries_.Add(q);
}

std::vector<int> SubplanGraph::SubplansOfQuery(QueryId q) const {
  std::vector<int> out;
  for (int i = 0; i < num_subplans(); ++i) {
    if (subplans_[i].queries.Contains(q)) out.push_back(i);
  }
  return out;
}

void SubplanGraph::RecomputeEdges() {
  for (Subplan& sp : subplans_) {
    sp.children.clear();
    sp.parents.clear();
    sp.queries = sp.root->queries;
    sp.root_of = QuerySet();
  }
  for (int i = 0; i < num_subplans(); ++i) {
    std::vector<PlanNodePtr> nodes;
    CollectNodes(subplans_[i].root, &nodes);
    std::set<int> child_set;
    for (const PlanNodePtr& n : nodes) {
      if (n->kind == PlanKind::kSubplanInput) {
        CHECK(n->input_subplan >= 0 && n->input_subplan < num_subplans())
            << "dangling subplan input " << n->input_subplan;
        if (child_set.insert(n->input_subplan).second) {
          subplans_[i].children.push_back(n->input_subplan);
        }
      }
    }
  }
  for (int i = 0; i < num_subplans(); ++i) {
    for (int c : subplans_[i].children) {
      subplans_[c].parents.push_back(i);
    }
  }
  for (size_t q = 0; q < query_roots_.size(); ++q) {
    if (query_roots_[q] >= 0) {
      subplans_[query_roots_[q]].root_of.Add(static_cast<QueryId>(q));
    }
  }
}

std::vector<int> SubplanGraph::TopoChildrenFirst() const {
  std::vector<int> order;
  std::vector<int> state(num_subplans(), 0);  // 0=unvisited 1=visiting 2=done
  std::function<void(int)> visit = [&](int i) {
    CHECK_NE(state[i], 1) << "cycle in subplan graph at " << i;
    if (state[i] == 2) return;
    state[i] = 1;
    for (int c : subplans_[i].children) visit(c);
    state[i] = 2;
    order.push_back(i);
  };
  for (int i = 0; i < num_subplans(); ++i) visit(i);
  return order;
}

std::vector<int> SubplanGraph::TopoParentsFirst() const {
  std::vector<int> order = TopoChildrenFirst();
  std::reverse(order.begin(), order.end());
  return order;
}

Status SubplanGraph::Validate() const {
  for (int i = 0; i < num_subplans(); ++i) {
    const Subplan& sp = subplans_[i];
    if (sp.root == nullptr) {
      return Status::Internal("subplan " + std::to_string(i) + " has no root");
    }
    if (sp.queries.empty()) {
      return Status::Internal("subplan " + std::to_string(i) +
                              " has empty query set");
    }
    for (int p : sp.parents) {
      // Engine requirement (Sec. 2.2): child query set subsumes parent's.
      if (!sp.queries.ContainsAll(subplans_[p].queries)) {
        return Status::Internal(
            "subplan " + std::to_string(i) + " queries " +
            sp.queries.ToString() + " do not subsume parent " +
            std::to_string(p) + " queries " + subplans_[p].queries.ToString());
      }
    }
    // Within a subplan every operator is shared by the same query set, and
    // input leaves must not admit foreign query bits.
    std::vector<PlanNodePtr> nodes;
    CollectNodes(sp.root, &nodes);
    for (const PlanNodePtr& n : nodes) {
      if (n->kind == PlanKind::kSubplanInput) {
        if (!sp.queries.ContainsAll(n->queries)) {
          return Status::Internal("subplan " + std::to_string(i) +
                                  " input leaf admits foreign queries " +
                                  n->queries.ToString());
        }
      } else if (!(n->queries == sp.queries)) {
        return Status::Internal("subplan " + std::to_string(i) +
                                " interior node query set " +
                                n->queries.ToString() + " != subplan's " +
                                sp.queries.ToString());
      }
    }
  }
  // Ids may be sparse under churn: only *live* queries must have a root.
  for (QueryId q : live_queries_.ToIds()) {
    if (q >= num_queries_ || query_roots_[q] < 0) {
      return Status::Internal("query q" + std::to_string(q) + " has no root");
    }
  }
  // TopoChildrenFirst CHECK-fails on cycles; run it for the side effect.
  (void)TopoChildrenFirst();
  return Status::OK();
}

std::string SubplanGraph::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < num_subplans(); ++i) {
    const Subplan& sp = subplans_[i];
    os << "Subplan #" << i << " " << sp.queries.ToString();
    if (!sp.root_of.empty()) os << " root_of=" << sp.root_of.ToString();
    os << " children=[";
    for (size_t k = 0; k < sp.children.size(); ++k) {
      if (k > 0) os << ",";
      os << sp.children[k];
    }
    os << "]\n";
    os << sp.root->TreeString(1);
  }
  return os.str();
}

void CollectNodes(const PlanNodePtr& root, std::vector<PlanNodePtr>* out) {
  CHECK(root != nullptr);
  out->push_back(root);
  for (const PlanNodePtr& c : root->children) CollectNodes(c, out);
}

int CountOperators(const PlanNodePtr& root) {
  if (root->kind == PlanKind::kSubplanInput) return 0;
  int n = 1;
  for (const PlanNodePtr& c : root->children) n += CountOperators(c);
  return n;
}

Status ValidatePaceConfig(const SubplanGraph& graph, const PaceConfig& paces) {
  if (static_cast<int>(paces.size()) != graph.num_subplans()) {
    return Status::InvalidArgument(
        "pace configuration has " + std::to_string(paces.size()) +
        " entries for " + std::to_string(graph.num_subplans()) + " subplans");
  }
  for (size_t i = 0; i < paces.size(); ++i) {
    if (paces[i] < 1) {
      return Status::InvalidArgument("pace " + std::to_string(paces[i]) +
                                     " of subplan " + std::to_string(i) +
                                     " is < 1");
    }
  }
  return Status::OK();
}

}  // namespace ishare
