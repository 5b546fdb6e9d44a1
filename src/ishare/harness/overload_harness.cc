#include "ishare/harness/overload_harness.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/harness/result_compare.h"
#include "ishare/obs/obs.h"

namespace ishare {

namespace {

constexpr double kEps = 1e-9;

// Component names follow the registration convention of the executors:
// "buf:subplan_<s>" / "state:subplan_<s>" for subplan s, "base" for the
// polled base buffers. Returns the subplan id, or -1 for "base"/unknown.
int ComponentSubplan(const std::string& name) {
  size_t sep = name.rfind("subplan_");
  if (sep == std::string::npos) return -1;
  return std::stoi(name.substr(sep + 8));
}

// Result-map equality for gate 5 lives in result_compare.h
// (RowsEquivalent / ResultsEquivalent), shared with the chaos harness.

struct PassResult {
  std::unique_ptr<StreamSource> source;
  std::unique_ptr<AdaptiveExecutor> exec;
  AdaptiveRunResult run;
  std::vector<double> initial_slack;     // after BeginWindow
  std::vector<bool> initial_protective;  // after BeginWindow
};

Result<PassResult> RunPass(CostEstimator* estimator, const PaceConfig& paces,
                           const std::vector<double>& constraints,
                           const SourceFactory& make_source,
                           const AdaptivePolicy& policy,
                           const ExecOptions& exec_opts) {
  PassResult out;
  out.source = make_source();
  out.exec = std::make_unique<AdaptiveExecutor>(
      estimator, out.source.get(), constraints, policy, exec_opts);
  ISHARE_RETURN_NOT_OK(out.exec->BeginWindow(paces));
  out.initial_slack = out.exec->query_slack();
  int n = estimator->graph().num_subplans();
  out.initial_protective.resize(n);
  for (int s = 0; s < n; ++s) {
    out.initial_protective[s] = out.exec->subplan_protective(s);
  }
  ISHARE_ASSIGN_OR_RETURN(out.run, out.exec->ResumeWindow());
  return out;
}

}  // namespace

Result<OverloadReport> RunOverload(CostEstimator* estimator,
                                   const PaceConfig& paces,
                                   const std::vector<double>& abs_constraints,
                                   const SourceFactory& make_source,
                                   const OverloadOptions& options) {
  obs::ScopedSpan span("harness.overload.run");
  const SubplanGraph& graph = estimator->graph();
  int num_queries = graph.num_queries();
  OverloadReport rep;

  // ---- Pass A: unbounded (track-only) -----------------------------------
  // Shedding stays inert because the budget is unlimited; this measures
  // the working set the engine needs when nothing pushes back, and
  // materializes the reference results for gate 5.
  flow::MemoryBudget track(0);
  ExecOptions opts_a = options.exec;
  opts_a.flow.budget = &track;
  opts_a.flow.buffer_soft_limit_bytes = 0;
  ISHARE_ASSIGN_OR_RETURN(
      PassResult a, RunPass(estimator, paces, abs_constraints, make_source,
                            options.policy, opts_a));
  rep.peak_unbounded = track.peak();
  for (int c = 0; c < track.num_components(); ++c) {
    int s = ComponentSubplan(track.component_name(c));
    bool protective =
        s < 0 || (s < static_cast<int>(a.initial_protective.size()) &&
                  a.initial_protective[s]);
    if (protective) rep.protective_peak += track.component_peak(c);
  }

  // ---- Budget derivation ------------------------------------------------
  // Budget = protective_peak + kBudgetMargin * (peak_unbounded -
  // protective_peak): always enough for the protective working set,
  // deliberately not enough for the full one (a margin in (0, 1) forces
  // shedding). Sums of per-component peaks over-approximate the joint
  // peak, so the budget is conservative but still well under
  // peak_unbounded.
  constexpr double kBudgetMargin = 0.35;
  double sheddable_span = static_cast<double>(
      std::max<int64_t>(0, rep.peak_unbounded - rep.protective_peak));
  rep.budget_bytes = std::max<int64_t>(
      1, rep.protective_peak +
             static_cast<int64_t>(kBudgetMargin * sheddable_span));

  // ---- Pass B: bounded, defer + drop ------------------------------------
  flow::MemoryBudget bounded(rep.budget_bytes);
  AdaptivePolicy policy_b = options.policy;
  policy_b.enable_shed_drop = true;
  policy_b.drop_pressure_target = options.drop_pressure_target;
  ExecOptions opts_b = options.exec;
  opts_b.flow.budget = &bounded;
  // Per-buffer soft limit as a fraction of the derived budget.
  constexpr double kBufferLimitFraction = 0.5;
  opts_b.flow.buffer_soft_limit_bytes = static_cast<int64_t>(
      kBufferLimitFraction * static_cast<double>(rep.budget_bytes));
  ISHARE_ASSIGN_OR_RETURN(
      PassResult b, RunPass(estimator, paces, abs_constraints, make_source,
                            policy_b, opts_b));
  rep.peak_bounded = bounded.peak();
  rep.flow = b.run.flow;
  rep.drop_log = b.run.drop_log;
  rep.arrived = b.exec->ConsumedInput();
  rep.admitted = rep.flow.admitted_tuples;
  rep.dropped = rep.flow.dropped_tuples;

  rep.queries.resize(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    OverloadQueryReport& qr = rep.queries[q];
    qr.slack = q < static_cast<int>(b.initial_slack.size())
                   ? b.initial_slack[q]
                   : 0.0;
    qr.constraint = abs_constraints[q];
    qr.final_work = b.run.run.query_final_work[q];
    qr.deadline_met = qr.final_work <= qr.constraint + kEps;
    qr.deferred_execs = q < static_cast<int>(rep.flow.query_deferred.size())
                            ? rep.flow.query_deferred[q]
                            : 0;
    qr.dropped_tuples = q < static_cast<int>(rep.flow.query_dropped.size())
                            ? rep.flow.query_dropped[q]
                            : 0;
  }

  // ---- Gates 1-4 --------------------------------------------------------
  rep.peak_within_budget = rep.peak_bounded <= rep.budget_bytes;
  if (!rep.peak_within_budget && rep.mismatch.empty()) {
    rep.mismatch = "peak " + std::to_string(rep.peak_bounded) +
                   " exceeds budget " + std::to_string(rep.budget_bytes);
  }

  rep.zero_slack_deadlines_kept = true;
  for (const OverloadQueryReport& qr : rep.queries) {
    if (qr.slack > kEps) continue;
    if (!qr.deadline_met || qr.dropped_tuples > 0) {
      rep.zero_slack_deadlines_kept = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "zero-slack query shed or missed its deadline";
      }
      break;
    }
  }

  rep.accounting_balanced = rep.arrived == rep.admitted + rep.dropped;
  if (!rep.accounting_balanced && rep.mismatch.empty()) {
    rep.mismatch = "accounting: arrived " + std::to_string(rep.arrived) +
                   " != admitted " + std::to_string(rep.admitted) +
                   " + dropped " + std::to_string(rep.dropped);
  }

  rep.shed_order_descending = true;
  for (size_t i = 1; i < rep.drop_log.size(); ++i) {
    const ShedDropEvent& prev = rep.drop_log[i - 1];
    const ShedDropEvent& cur = rep.drop_log[i];
    if (cur.step == prev.step && cur.slack > prev.slack + kEps) {
      rep.shed_order_descending = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "drop order violated at step " +
                       std::to_string(cur.step) + ": slack " +
                       std::to_string(cur.slack) + " after " +
                       std::to_string(prev.slack);
      }
      break;
    }
  }

  // ---- Pass C: bounded, defer-only — bit-exactness ----------------------
  // Deferral moves executions, never tuples: the trigger still covers all
  // remaining input, so materialized results must match the unbounded run
  // exactly. (Peak memory is NOT gated here — without drops the trigger
  // merges the whole backlog, which is exactly why drop mode exists.)
  flow::MemoryBudget defer_only(rep.budget_bytes);
  AdaptivePolicy policy_c = options.policy;
  policy_c.enable_shed_drop = false;
  ExecOptions opts_c = opts_b;
  opts_c.flow.budget = &defer_only;
  ISHARE_ASSIGN_OR_RETURN(
      PassResult c, RunPass(estimator, paces, abs_constraints, make_source,
                            policy_c, opts_c));
  rep.defer_only_bit_exact = true;
  for (QueryId q = 0; q < num_queries; ++q) {
    auto ref = MaterializeResult(*a.exec->query_output(q), q);
    auto got = MaterializeResult(*c.exec->query_output(q), q);
    if (!ResultsEquivalent(ref, got)) {
      rep.defer_only_bit_exact = false;
      if (rep.mismatch.empty()) {
        rep.mismatch =
            "defer-only result differs for query " + std::to_string(q);
      }
      break;
    }
  }
  if (c.run.flow.dropped_tuples != 0) {
    rep.defer_only_bit_exact = false;
    if (rep.mismatch.empty()) {
      rep.mismatch = "defer-only pass dropped tuples";
    }
  }

  obs::Registry()
      .GetGauge("harness.overload.budget_bytes")
      .Set(static_cast<double>(rep.budget_bytes));
  obs::Registry()
      .GetGauge("harness.overload.peak_bounded")
      .Set(static_cast<double>(rep.peak_bounded));
  return rep;
}

}  // namespace ishare
