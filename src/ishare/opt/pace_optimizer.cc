#include "ishare/opt/pace_optimizer.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "ishare/obs/obs.h"

namespace ishare {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

double PaceBenefit(const PlanCost& eager, const PlanCost& lazy,
                   const std::vector<double>& constraints) {
  CHECK_EQ(eager.query_final_work.size(), lazy.query_final_work.size());
  CHECK_EQ(eager.query_final_work.size(), constraints.size());
  double benefit = 0;
  for (size_t q = 0; q < constraints.size(); ++q) {
    // C'_F(P_A, q) = max(L(q), C_F(P_A, q)): reductions below the
    // constraint yield no additional benefit.
    double bounded_eager =
        std::max(constraints[q], eager.query_final_work[q]);
    benefit += std::max(0.0, lazy.query_final_work[q] - bounded_eager);
  }
  return benefit;
}

double Incrementability(const PlanCost& eager, const PlanCost& lazy,
                        const std::vector<double>& constraints) {
  double benefit = PaceBenefit(eager, lazy, constraints);
  double extra = eager.total_work - lazy.total_work;
  if (extra <= kEps) return benefit > 0 ? kInf : 0.0;
  return benefit / extra;
}

PaceOptimizer::PaceOptimizer(CostEstimator* estimator,
                             std::vector<double> constraints,
                             PaceOptimizerOptions opts)
    : estimator_(estimator),
      constraints_(std::move(constraints)),
      opts_(opts) {
  CHECK(estimator != nullptr);
  CHECK_EQ(static_cast<int>(constraints_.size()),
           estimator->graph().num_queries());
  CHECK_GE(opts_.max_pace, 1);
}

bool PaceOptimizer::ConstraintsMet(const PlanCost& cost) const {
  for (size_t q = 0; q < constraints_.size(); ++q) {
    if (cost.query_final_work[q] > constraints_[q] + kEps) return false;
  }
  return true;
}

PaceSearchResult PaceOptimizer::FindPaceConfiguration(
    const PaceConfig* warm_start) {
  obs::ScopedSpan search_span("opt.pace_search.run");
  const SubplanGraph& g = estimator_->graph();
  int n = g.num_subplans();
  PaceSearchResult res;
  if (warm_start != nullptr) {
    CHECK_EQ(static_cast<int>(warm_start->size()), n);
    res.paces = *warm_start;
  } else {
    res.paces.assign(n, 1);
  }
  res.cost = estimator_->Estimate(res.paces);
  auto start = std::chrono::steady_clock::now();

  while (true) {
    if (opts_.deadline_seconds > 0) {
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (elapsed > opts_.deadline_seconds) {
        res.timed_out = true;
        break;
      }
    }
    if (ConstraintsMet(res.cost)) break;
    bool all_max = true;
    for (int p : res.paces) {
      if (p < opts_.max_pace) all_max = false;
    }
    if (all_max) break;

    obs::ScopedSpan iter_span("opt.pace_search.iterate");
    int best = -1;
    double best_inc = -1;
    double best_extra = kInf;
    PlanCost best_cost;
    for (int i = 0; i < n; ++i) {
      if (res.paces[i] >= opts_.max_pace) continue;
      // Raising subplan i's pace must keep parent <= child for i's own
      // children (i is their parent).
      bool ok = true;
      for (int c : g.subplan(i).children) {
        if (res.paces[c] < res.paces[i] + 1) ok = false;
      }
      if (!ok) continue;
      // Only i and its ancestors are re-estimated for this candidate.
      PlanCost cc =
          estimator_->EstimateWithPace(res.paces, i, res.paces[i] + 1);
      double inc = Incrementability(cc, res.cost, constraints_);
      double extra = cc.total_work - res.cost.total_work;
      if (inc > best_inc + kEps ||
          (std::abs(inc - best_inc) <= kEps && extra < best_extra)) {
        best = i;
        best_inc = inc;
        best_extra = extra;
        best_cost = cc;
      }
    }
    // No candidate, or nothing reduces any missed final work: raising paces
    // further only spends total work without progress, so stop.
    if (best < 0 || best_inc <= 0) break;
    res.paces[best] += 1;
    res.cost = std::move(best_cost);
    ++res.iterations;
    obs::Registry().GetCounter("opt.pace_search.iterations").Add(1);
  }
  return res;
}

PaceSearchResult PaceOptimizer::RefineDecreasing(const PaceConfig& initial) {
  obs::ScopedSpan refine_span("opt.pace_refine.run");
  const SubplanGraph& g = estimator_->graph();
  int n = g.num_subplans();
  CHECK_EQ(static_cast<int>(initial.size()), n);
  PaceSearchResult res;
  res.paces = initial;
  res.cost = estimator_->Estimate(res.paces);

  while (true) {
    int best = -1;
    double best_inc = kInf;
    PlanCost best_cost;
    for (int i = 0; i < n; ++i) {
      if (res.paces[i] <= 1) continue;
      // Lowering subplan i's pace must keep every parent's pace <= it.
      bool ok = true;
      for (int p : g.subplan(i).parents) {
        if (res.paces[p] > res.paces[i] - 1) ok = false;
      }
      if (!ok) continue;
      PlanCost cc =
          estimator_->EstimateWithPace(res.paces, i, res.paces[i] - 1);
      if (cc.total_work >= res.cost.total_work - kEps) continue;  // no gain
      // Feasibility: no query may become (more) violated than it is now.
      bool feasible = true;
      for (size_t q = 0; q < constraints_.size(); ++q) {
        double limit = std::max(constraints_[q],
                                res.cost.query_final_work[q] + kEps);
        if (cc.query_final_work[q] > limit + kEps) feasible = false;
      }
      if (!feasible) continue;
      // res.cost is the eager side, cand the lazy side; pick the subplan
      // whose eagerness is least justified (lowest incrementability).
      double inc = Incrementability(res.cost, cc, constraints_);
      if (inc < best_inc) {
        best = i;
        best_inc = inc;
        best_cost = cc;
      }
    }
    if (best < 0) break;
    res.paces[best] -= 1;
    res.cost = std::move(best_cost);
    ++res.iterations;
    obs::Registry().GetCounter("opt.pace_refine.iterations").Add(1);
  }
  return res;
}

std::vector<double> QuerySlackFractions(const PlanCost& cost,
                                        const std::vector<double>& constraints,
                                        double drift_ratio) {
  size_t n = std::min(cost.query_final_work.size(), constraints.size());
  std::vector<double> slack(constraints.size(), 0.0);
  for (size_t q = 0; q < n; ++q) {
    double l = constraints[q];
    if (l <= 0) continue;  // no headroom by definition
    double predicted = drift_ratio * cost.query_final_work[q];
    double s = (l - predicted) / l;
    slack[q] = std::min(std::max(s, 0.0), 1.0);
  }
  return slack;
}

}  // namespace ishare
