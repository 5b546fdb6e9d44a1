#include "ishare/cost/simulator.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "ishare/cost/selectivity.h"

namespace ishare {

namespace {

// Product of the group-by columns' NDVs, capped to keep estimates sane.
double GroupCount(const std::vector<std::string>& cols,
                  const ColumnProfile& profile) {
  if (cols.empty()) return 1.0;
  double g = 1.0;
  for (const std::string& c : cols) {
    const ColumnStats* cs = FindColumn(profile, c);
    g *= (cs != nullptr ? std::max(1.0, cs->ndv) : 100.0);
    g = std::min(g, 1e12);
  }
  return g;
}

// Product of the key columns' NDVs, capped like GroupCount.
double KeyNdv(const std::vector<std::string>& keys,
              const ColumnProfile& profile) {
  double k = 1.0;
  for (const std::string& c : keys) {
    const ColumnStats* cs = FindColumn(profile, c);
    k = std::min(1e12, k * (cs != nullptr ? std::max(1.0, cs->ndv) : 100));
  }
  return k;
}

double NetInserts(double card, double deletes) {
  return card - 2 * std::min(card, deletes);
}

double SafeFrac(double a, double b) { return b > 0 ? a / b : 0.0; }

// Position of `q` in the ascending `ids`, or -1.
int PositionOf(const std::vector<QueryId>& ids, QueryId q) {
  auto it = std::lower_bound(ids.begin(), ids.end(), q);
  return (it != ids.end() && *it == q) ? static_cast<int>(it - ids.begin())
                                       : -1;
}

}  // namespace

// Builds the op layout in preorder, computing every pace-independent
// quantity from the column profiles flowing up the tree.
class CompiledSubplan::Compiler {
 public:
  Compiler(const Catalog& catalog, std::span<const SimInput> inputs,
           CompiledSubplan* out)
      : catalog_(catalog), inputs_(inputs), out_(out) {}

  struct Built {
    int index = 0;
    std::vector<QueryId> ids;  // the op's output queries, ascending
    ColumnProfile profile;
  };

  Built Build(const PlanNodePtr& node) {
    Built b;
    b.index = static_cast<int>(out_->ops_.size());
    out_->ops_.emplace_back();
    switch (node->kind) {
      case PlanKind::kScan: {
        const TableStats& st = catalog_.GetStats(node->table_name);
        Op& op = out_->ops_[b.index];
        op.kind = PlanKind::kScan;
        op.rows = st.row_count;
        b.ids = node->queries.ToIds();
        b.profile = ProfileFromStats(st);
        Finish(&b, /*alias=*/-1);
        return b;
      }
      case PlanKind::kSubplanInput: {
        CHECK_LT(next_input_, inputs_.size())
            << "missing SimInput for subplan input leaf";
        const SimInput& in = inputs_[next_input_];
        CHECK(std::adjacent_find(in.queries.begin(), in.queries.end(),
                                 std::greater_equal<QueryId>()) ==
              in.queries.end())
            << "SimInput queries must be strictly ascending";
        Op& op = out_->ops_[b.index];
        op.kind = PlanKind::kSubplanInput;
        op.input = static_cast<int>(next_input_++);
        out_->input_sizes_.push_back(in.queries.size());
        // Masked to this subplan's queries, in ascending id order.
        for (QueryId q : node->queries.ToIds()) {
          int pos = PositionOf(in.queries, q);
          if (pos < 0) continue;
          op.pick.push_back(pos);
          b.ids.push_back(q);
        }
        if (in.profile != nullptr) b.profile = *in.profile;
        Finish(&b, -1);
        return b;
      }
      default:
        break;
    }
    std::vector<Built> kids;
    for (const PlanNodePtr& c : node->children) kids.push_back(Build(c));
    Op& op = out_->ops_[b.index];
    op.kind = node->kind;
    for (const Built& k : kids) op.children.push_back(k.index);
    int alias = -1;
    switch (node->kind) {
      case PlanKind::kFilter: {
        const ColumnProfile& child = kids[0].profile;
        // Every query of the node has a selectivity, whether or not the
        // input carries it; the widest one scales the profile.
        std::vector<QueryId> node_ids = node->queries.ToIds();
        std::vector<double> sels;
        double max_sel = kMinSelectivity;
        for (QueryId q : node_ids) {
          auto it = node->predicates.find(q);
          sels.push_back(it == node->predicates.end()
                             ? 1.0
                             : EstimateSelectivity(it->second, child));
          max_sel = std::max(max_sel, sels.back());
        }
        const std::vector<QueryId>& in_ids = kids[0].ids;
        for (size_t k = 0; k < in_ids.size(); ++k) {
          int pos = PositionOf(node_ids, in_ids[k]);
          if (pos < 0) continue;
          op.pick.push_back(static_cast<int>(k));
          op.sel.push_back(sels[pos]);
          b.ids.push_back(in_ids[k]);
        }
        b.profile = child;
        for (auto& [name, cs] : b.profile) {
          cs.ndv = std::max(1.0, cs.ndv * max_sel);
        }
        break;
      }
      case PlanKind::kProject: {
        const ColumnProfile& child = kids[0].profile;
        for (const NamedExpr& ne : node->projections) {
          if (ne.expr->kind() == ExprKind::kColumn) {
            const ColumnStats* cs = FindColumn(child, ne.expr->column_name());
            if (cs != nullptr) {
              b.profile[ne.alias] = *cs;
              continue;
            }
          }
          // Computed column: combine argument NDVs heuristically.
          std::vector<std::string> cols;
          ne.expr->CollectColumns(&cols);
          double ndv = 1.0;
          for (const std::string& c : cols) {
            const ColumnStats* cs = FindColumn(child, c);
            if (cs != nullptr) {
              ndv = std::min(1e9, ndv * std::max(1.0, cs->ndv));
            }
          }
          ColumnStats cs;
          cs.ndv = std::max(1.0, ndv);
          cs.numeric = true;
          b.profile[ne.alias] = cs;
        }
        // A projection passes its input's counts through unchanged.
        b.ids = kids[0].ids;
        alias = kids[0].index;
        break;
      }
      case PlanKind::kJoin: {
        const ColumnProfile& left = kids[0].profile;
        const ColumnProfile& right = kids[1].profile;
        double lk = KeyNdv(node->left_keys, left);
        double rk = KeyNdv(node->right_keys, right);
        op.key_ndv = std::max(1.0, std::max(lk, rk));
        op.right_key_ndv = std::max(1.0, rk);
        op.inner = node->join_type == JoinType::kInner;
        op.semi = node->join_type == JoinType::kLeftSemi;
        b.profile = left;
        if (op.inner) {
          for (const auto& [name, cs] : right) b.profile[name] = cs;
        }
        // Output queries are the left side's; each may or may not be
        // carried by the right side.
        b.ids = kids[0].ids;
        for (QueryId q : b.ids) {
          op.right_pick.push_back(PositionOf(kids[1].ids, q));
        }
        break;
      }
      case PlanKind::kAggregate: {
        const ColumnProfile& child = kids[0].profile;
        op.groups = GroupCount(node->group_by, child);
        for (const AggSpec& a : node->aggregates) {
          if (a.kind == AggKind::kMin || a.kind == AggKind::kMax) {
            op.has_minmax = true;
          }
        }
        for (const std::string& g : node->group_by) {
          const ColumnStats* cs = FindColumn(child, g);
          if (cs != nullptr) b.profile[g] = *cs;
        }
        for (const AggSpec& a : node->aggregates) {
          ColumnStats cs;
          cs.numeric = true;
          cs.ndv = op.groups;
          b.profile[a.alias] = cs;
        }
        b.ids = kids[0].ids;
        break;
      }
      default:
        CHECK(false) << "unexpected node kind";
    }
    Finish(&b, alias);
    return b;
  }

  size_t inputs_used() const { return next_input_; }

 private:
  // Assigns the op's output slots (or shares `alias`'s) and its state.
  void Finish(Built* b, int alias) {
    Op& op = out_->ops_[b->index];
    op.num_out = static_cast<int>(b->ids.size());
    if (alias >= 0) {
      op.out = out_->ops_[alias].out;
    } else {
      op.out = Take(op.num_out);
    }
    if (op.kind == PlanKind::kJoin) op.state = Take(2 * op.num_out);
    if (op.kind == PlanKind::kAggregate) op.state = Take(op.num_out);
  }

  int Take(int n) {
    int at = out_->num_slots_;
    out_->num_slots_ += n;
    return at;
  }

  const Catalog& catalog_;
  std::span<const SimInput> inputs_;
  CompiledSubplan* out_;
  size_t next_input_ = 0;
};

CompiledSubplan::CompiledSubplan(const PlanNodePtr& root,
                                 const Catalog& catalog,
                                 std::span<const SimInput> inputs) {
  Compiler c(catalog, inputs, this);
  Compiler::Built b = c.Build(root);
  CHECK_EQ(c.inputs_used(), inputs.size()) << "unused SimInputs";
  out_queries_ = std::move(b.ids);
  out_profile_ = std::move(b.profile);
}

void CompiledSubplan::Step(const Op& op, int pace,
                           std::span<const SimFlow> inputs,
                           std::vector<OpState>* states, double* q,
                           OpState* self) const {
  std::vector<OpState>& st = *states;
  double* out = q + op.out;
  switch (op.kind) {
    case PlanKind::kScan: {
      // Emits 1/pace of the table per step; consume + emit.
      self->card = op.rows / pace;
      self->deletes = 0;
      for (int j = 0; j < op.num_out; ++j) out[j] = op.rows / pace;
      self->cost += self->card * 2;
      return;
    }
    case PlanKind::kSubplanInput: {
      // Masked to this subplan's queries; the runtime drops unneeded
      // tuples but still pays to read them (consume + masked emit).
      const SimFlow& in = inputs[op.input];
      double in_card = in.card / pace;
      double in_deletes = in.deletes / pace;
      for (int j = 0; j < op.num_out; ++j) {
        out[j] = in.per_query[op.pick[j]] / pace;
      }
      self->card =
          in_card * UnionFraction({out, static_cast<size_t>(op.num_out)},
                                  in_card);
      self->deletes = in_deletes * (in_card > 0 ? self->card / in_card : 0);
      self->cost += in_card + self->card;
      return;
    }
    case PlanKind::kFilter: {
      const OpState& in = st[op.children[0]];
      const double* in_q = q + ops_[op.children[0]].out;
      for (int j = 0; j < op.num_out; ++j) {
        out[j] = in_q[op.pick[j]] * op.sel[j];
      }
      self->card =
          in.card * UnionFraction({out, static_cast<size_t>(op.num_out)},
                                  in.card);
      self->deletes = in.card > 0 ? in.deletes * self->card / in.card : 0;
      self->cost += in.card + self->card;
      return;
    }
    case PlanKind::kProject: {
      const OpState& in = st[op.children[0]];
      self->card = in.card;
      self->deletes = in.deletes;
      self->cost += self->card * 2;
      return;
    }
    case PlanKind::kJoin: {
      const OpState& dl = st[op.children[0]];
      const OpState& dr = st[op.children[1]];
      const double* dl_q = q + ops_[op.children[0]].out;
      const double* dr_q = q + ops_[op.children[1]].out;
      double* l_q = q + op.state;
      double* r_q = l_q + op.num_out;
      auto right_count = [&](int j) {
        return op.right_pick[j] >= 0 ? dr_q[op.right_pick[j]] : 0.0;
      };
      if (op.inner) {
        double l_new = self->cum_a + NetInserts(dl.card, dl.deletes);
        double r_new = self->cum_b + NetInserts(dr.card, dr.deletes);
        self->card =
            (dl.card * self->cum_b + l_new * dr.card) / op.key_ndv;
        for (int j = 0; j < op.num_out; ++j) {
          double c = dl_q[j];
          double lq_new = l_q[j] + c - 2 * std::min(c, dl.deletes);
          out[j] = (c * r_q[j] + (lq_new)*right_count(j)) / op.key_ndv;
        }
        double in_total = dl.card + dr.card;
        double del_frac =
            in_total > 0 ? (dl.deletes + dr.deletes) / in_total : 0.0;
        self->deletes = self->card * del_frac;
        self->cost += in_total + 2 * self->card;  // probes ~ matches, emits
        // Advance cumulative state.
        self->cum_a = l_new;
        self->cum_b = r_new;
        for (int j = 0; j < op.num_out; ++j) {
          double c = dl_q[j];
          l_q[j] += c - 2 * std::min(c, dl.deletes);
          if (op.right_pick[j] >= 0) {
            double d = right_count(j);
            r_q[j] += d - 2 * std::min(d, dr.deletes);
          }
        }
        return;
      }
      for (int j = 0; j < op.num_out; ++j) {
        double c = dl_q[j];
        double rq_before = r_q[j];
        double drq = right_count(j);
        double rq_after = rq_before + drq - 2 * std::min(drq, dr.deletes);
        auto match_prob = [&op](double right) {
          if (right <= 0) return 0.0;
          return std::min(1.0, CardenasDistinct(op.right_key_ndv, right) /
                                   op.right_key_ndv);
        };
        double p_before = match_prob(rq_before);
        double p_after = match_prob(rq_after);
        double lq = l_q[j];
        double dlq_net = c - 2 * std::min(c, dl.deletes);
        // New left tuples emitted under the current match probability,
        // plus stored left tuples flipped by the right-side transition.
        out[j] = c * (op.semi ? p_after : 1.0 - p_after) +
                 lq * std::abs(p_after - p_before);
        l_q[j] = lq + dlq_net;
        r_q[j] = rq_after;
      }
      self->card =
          (dl.card > 0 || dr.card > 0)
              ? std::max(dl.card, 1.0) *
                    UnionFraction({out, static_cast<size_t>(op.num_out)},
                                  std::max(dl.card, 1.0))
              : 0.0;
      // Flip emissions are delete+insert-ish; approximate deletes as the
      // transition-driven half.
      self->deletes = 0.5 * std::max(0.0, self->card - dl.card);
      self->cost += dl.card + dr.card + self->card;
      return;
    }
    case PlanKind::kAggregate: {
      const OpState& in = st[op.children[0]];
      const double* in_q = q + ops_[op.children[0]].out;
      double* cum_q = q + op.state;
      // Queries seeing (nearly) the whole input share output rows;
      // estimate their churn once as a class. Queries with restricted
      // inputs get their own output rows.
      double card = 0;
      double full_class_n = 0;
      bool has_full = false;
      for (int j = 0; j < op.num_out; ++j) {
        double c = in_q[j];
        bool full = (in.card > 0 && c >= 0.99 * in.card);
        // Churn estimate for this query's step input of c tuples.
        double net = c - 2 * std::min(c, in.deletes * SafeFrac(c, in.card));
        double before = CardenasDistinct(op.groups, cum_q[j]);
        double after =
            CardenasDistinct(op.groups, cum_q[j] + std::max(0.0, net));
        double new_groups = std::max(0.0, after - before);
        double touched = CardenasDistinct(op.groups, c);
        double existing = std::max(0.0, touched - new_groups);
        cum_q[j] += std::max(0.0, net);
        double o = new_groups + 2.0 * existing;
        out[j] = o;
        if (full) {
          has_full = true;
          full_class_n = std::max(full_class_n, o);
        } else {
          card += o;
        }
      }
      if (has_full) card += full_class_n;
      self->card = card;
      // Deletes among outputs: everything beyond one insert per new group
      // is delete+reinsert churn.
      self->deletes = card / 2.0 * (self->cum_a > in.card ? 1.0 : 0.0);
      double minmax_penalty = op.has_minmax ? in.deletes : 0.0;
      self->cost += in.card + card + in.card /*state updates*/ +
                    minmax_penalty;
      self->cum_a += in.card;
      return;
    }
  }
}

SimResult CompiledSubplan::Run(int pace, std::span<const SimFlow> inputs,
                               const ExecOptions& opts) const {
  CHECK_GE(pace, 1);
  CHECK_GE(inputs.size(), input_sizes_.size())
      << "missing SimInput for subplan input leaf";
  CHECK_EQ(inputs.size(), input_sizes_.size()) << "unused SimInputs";
  for (size_t k = 0; k < inputs.size(); ++k) {
    CHECK_EQ(inputs[k].per_query.size(), input_sizes_[k])
        << "input " << k << " carries other queries than it was compiled for";
  }
  const int n = static_cast<int>(ops_.size());
  std::vector<OpState> st(n);
  std::vector<double> q(num_slots_, 0.0);
  const Op& root = ops_[0];
  SimResult res;
  res.out_per_query.assign(root.num_out, 0.0);
  double prev_cost = 0;
  for (int step = 0; step < pace; ++step) {
    // Children before parents: reverse preorder.
    for (int i = n - 1; i >= 0; --i) {
      Step(ops_[i], pace, inputs, &st, q.data(), &st[i]);
    }
    // Each subtree is summed before it is added to its parent.
    for (int i = n - 1; i >= 0; --i) {
      double c = st[i].cost;
      for (int k : ops_[i].children) c += st[k].subtree;
      st[i].subtree = c;
    }
    double cost = st[0].subtree;
    double step_cost = (cost - prev_cost) + opts.startup_cost;
    prev_cost = cost;
    res.private_total_work += step_cost;
    res.private_final_work = step_cost;
    res.out_card += st[0].card;
    res.out_deletes += st[0].deletes;
    for (int j = 0; j < root.num_out; ++j) {
      res.out_per_query[j] += q[root.out + j];
    }
  }
  res.per_op_work.resize(n);
  for (int i = 0; i < n; ++i) res.per_op_work[i] = st[i].cost;
  return res;
}

double UnionFraction(std::span<const double> per_query, double base_card) {
  if (base_card <= 0) return 0.0;
  double miss_all = 1.0;
  for (double c : per_query) {
    double frac = std::min(1.0, std::max(0.0, c / base_card));
    miss_all *= (1.0 - frac);
  }
  return 1.0 - miss_all;
}

SimInput RestrictSimInput(const SimInput& in, QuerySet keep) {
  SimInput out;
  out.profile = in.profile;
  for (size_t k = 0; k < in.queries.size(); ++k) {
    if (!keep.Contains(in.queries[k])) continue;
    out.queries.push_back(in.queries[k]);
    out.per_query.push_back(in.per_query[k]);
  }
  double frac = UnionFraction(out.per_query, in.card);
  out.card = in.card * frac;
  out.deletes = in.deletes * frac;
  return out;
}

SimResult SimulateSubplan(const PlanNodePtr& root, const Catalog& catalog,
                          int pace, const std::vector<SimInput>& inputs,
                          const ExecOptions& opts) {
  CHECK_GE(pace, 1);
  CompiledSubplan model(root, catalog, inputs);
  std::vector<SimFlow> flows;
  flows.reserve(inputs.size());
  for (const SimInput& in : inputs) flows.push_back(FlowOf(in));
  return model.Run(pace, flows, opts);
}

}  // namespace ishare
