#include "ishare/arrange/eligibility.h"

#include "ishare/common/check.h"

namespace ishare::arrange {

namespace {

// The scan must cover every query of the consuming operator: a scan
// forwards each base tuple under its full query set, so coverage means
// every sharing query observes the same build stream and per-query state
// copies are provably identical.
bool CoveringScan(const PlanNode* child, const PlanNode* op) {
  return child != nullptr && child->kind == PlanKind::kScan &&
         child->queries.ContainsAll(op->queries);
}

}  // namespace

bool EligibleJoinBuild(const PlanNode* node, int side) {
  if (node == nullptr || node->kind != PlanKind::kJoin) return false;
  if (node->join_type != JoinType::kInner) return false;
  if (side < 0 || static_cast<size_t>(side) >= node->children.size()) {
    return false;
  }
  return CoveringScan(node->children[static_cast<size_t>(side)].get(), node);
}

bool EligibleAgg(const PlanNode* node) {
  if (node == nullptr || node->kind != PlanKind::kAggregate) return false;
  if (node->children.size() != 1) return false;
  return CoveringScan(node->children[0].get(), node);
}

ArrangementSpec JoinBuildSpec(const PlanNode* node, int side) {
  CHECK(EligibleJoinBuild(node, side));
  const PlanNode* scan = node->children[static_cast<size_t>(side)].get();
  const std::vector<std::string>& keys =
      (side == 0) ? node->left_keys : node->right_keys;
  ArrangementSpec spec;
  spec.kind = ArrangementKind::kJoinBuild;
  spec.table = scan->table_name;
  spec.input_schema = scan->output_schema;
  spec.signature = "jb:" + scan->table_name;
  for (const std::string& k : keys) {
    spec.signature += ":" + k;
    spec.key_idx.push_back(scan->output_schema.IndexOfOrDie(k));
  }
  return spec;
}

ArrangementSpec AggGroupsSpec(const PlanNode* node) {
  CHECK(EligibleAgg(node));
  const PlanNode* scan = node->children[0].get();
  ArrangementSpec spec;
  spec.kind = ArrangementKind::kAggGroups;
  spec.table = scan->table_name;
  spec.input_schema = scan->output_schema;
  spec.aggs = node->aggregates;
  spec.signature = "agg:" + scan->table_name;
  for (const std::string& g : node->group_by) {
    spec.signature += ":" + g;
    spec.key_idx.push_back(scan->output_schema.IndexOfOrDie(g));
  }
  for (const AggSpec& a : node->aggregates) {
    spec.signature += std::string(":") + AggKindName(a.kind) + "(" +
                      (a.arg != nullptr ? a.arg->ToString() : "*") + ")";
  }
  return spec;
}

}  // namespace ishare::arrange
