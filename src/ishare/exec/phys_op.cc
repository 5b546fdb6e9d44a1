#include "ishare/exec/phys_op.h"

#include <map>

#include "ishare/exec/aggregate.h"
#include "ishare/exec/hash_join.h"

namespace ishare {

DeltaBatch LeafOp::Process(int child_idx, DeltaBatch in) {
  CHECK_EQ(child_idx, 0);
  return Read(in);
}

DeltaBatch ScanOp::Read(DeltaSpan in) {
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    // Base tuples are valid for every query sharing this scan.
    out.emplace_back(t.row, node_->queries, t.weight);
    work_.out += 1;
  }
  return out;
}

DeltaBatch SubplanInputOp::Read(DeltaSpan in) {
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    QuerySet masked = t.qset.Intersect(node_->queries);
    if (masked.empty()) continue;  // σ_filter: not needed by this subplan
    out.emplace_back(t.row, masked, t.weight);
    work_.out += 1;
  }
  return out;
}

FilterOp::FilterOp(const PlanNode* node, const Schema& input_schema)
    : PhysOp(node) {
  // Group queries by their predicate object so each distinct predicate is
  // compiled and evaluated once per tuple (merged identical selects share
  // the same ExprPtr).
  std::map<const Expr*, std::pair<ExprPtr, QuerySet>> by_pred;
  for (const auto& [q, pred] : node->predicates) {
    if (pred == nullptr) continue;
    auto& slot = by_pred[pred.get()];
    slot.first = pred;
    slot.second.Add(q);
  }
  groups_.reserve(by_pred.size());
  for (const auto& [ptr, slot] : by_pred) {
    groups_.push_back(PredGroup{CompiledExpr::Compile(slot.first, input_schema),
                                slot.second});
  }
}

DeltaBatch FilterOp::Process(int child_idx, DeltaBatch in) {
  CHECK_EQ(child_idx, 0);
  // Compacts survivors to the front of `in`, preserving their order.
  size_t kept = 0;
  for (DeltaTuple& t : in) {
    work_.in += 1;
    for (const PredGroup& g : groups_) {
      if (!t.qset.Intersects(g.queries)) continue;
      if (!g.pred.EvalBool(t.row)) t.qset = t.qset.Minus(g.queries);
    }
    if (t.qset.empty()) continue;
    if (&in[kept] != &t) in[kept] = std::move(t);
    ++kept;
    work_.out += 1;
  }
  in.erase(in.begin() + static_cast<std::ptrdiff_t>(kept), in.end());
  return in;
}

ProjectOp::ProjectOp(const PlanNode* node, const Schema& input_schema)
    : PhysOp(node) {
  exprs_.reserve(node->projections.size());
  for (const NamedExpr& ne : node->projections) {
    exprs_.push_back(CompiledExpr::Compile(ne.expr, input_schema));
  }
}

DeltaBatch ProjectOp::Process(int child_idx, DeltaBatch in) {
  CHECK_EQ(child_idx, 0);
  DeltaBatch out;
  out.reserve(in.size());
  for (DeltaTuple& t : in) {
    work_.in += 1;
    Row row;
    row.reserve(exprs_.size());
    for (const CompiledExpr& e : exprs_) row.push_back(e.Eval(t.row));
    out.emplace_back(std::move(row), std::move(t.qset), t.weight);
    work_.out += 1;
  }
  return out;
}

std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node) {
  return CreatePhysOp(node, ExecOptions{});
}

std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node,
                                     const ExecOptions& opts) {
  CHECK(node != nullptr);
  switch (node->kind) {
    case PlanKind::kScan:
      return std::make_unique<ScanOp>(node);
    case PlanKind::kSubplanInput:
      return std::make_unique<SubplanInputOp>(node);
    case PlanKind::kFilter:
      return std::make_unique<FilterOp>(node,
                                        node->children[0]->output_schema);
    case PlanKind::kProject:
      return std::make_unique<ProjectOp>(node,
                                         node->children[0]->output_schema);
    case PlanKind::kJoin:
      return std::make_unique<HashJoinOp>(node,
                                          node->children[0]->output_schema,
                                          node->children[1]->output_schema,
                                          opts.arrange);
    case PlanKind::kAggregate:
      return std::make_unique<AggregateOp>(node,
                                           node->children[0]->output_schema,
                                           opts.arrange);
  }
  CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace ishare
