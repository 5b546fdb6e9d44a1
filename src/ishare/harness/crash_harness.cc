#include "ishare/harness/crash_harness.h"

#include <utility>

#include "ishare/obs/obs.h"
#include "ishare/recovery/serializer.h"

namespace ishare {
namespace {

// Marker the crash hooks fail with. A run that unwinds with exactly this
// message was killed by the plan; any other error is a genuine failure the
// harness propagates.
constexpr char kCrashMarker[] = "ishare.harness.injected_crash";

bool IsInjectedCrash(const Status& st) {
  return st.code() == StatusCode::kInternal && st.message() == kCrashMarker;
}

// Canonical bytes of every query root's output buffer (log + offsets),
// the "per-query results" side of the equivalence check.
std::vector<std::string> QueryOutputs(const AdaptiveExecutor& exec,
                                      int num_queries) {
  std::vector<std::string> out;
  out.reserve(num_queries);
  for (QueryId q = 0; q < num_queries; ++q) {
    recovery::CheckpointWriter w;
    exec.query_output(q)->Snapshot(&w);
    out.push_back(w.Take());
  }
  return out;
}

// Fills the *_identical verdicts of `rep` from the baseline and the
// run under test. Exact (bitwise) comparisons throughout: recovery that
// is only approximately right is wrong.
void CompareRuns(const std::vector<std::string>& base_outputs,
                 const std::string& base_fp, const RunResult& base_run,
                 const std::vector<std::string>& test_outputs,
                 const std::string& test_fp, const RunResult& test_run,
                 CrashRunReport* rep) {
  rep->results_identical = true;
  for (size_t q = 0; q < base_outputs.size(); ++q) {
    if (base_outputs[q] != test_outputs[q]) {
      rep->results_identical = false;
      if (rep->mismatch.empty()) {
        rep->mismatch = "query " + std::to_string(q) + " output log differs";
      }
      break;
    }
  }

  rep->state_identical = base_fp == test_fp;
  if (!rep->state_identical && rep->mismatch.empty()) {
    rep->mismatch = "state fingerprint differs";
  }

  rep->baseline_query_final_work = base_run.query_final_work;
  rep->recovered_query_final_work = test_run.query_final_work;
  rep->work_identical =
      base_run.total_work == test_run.total_work &&
      base_run.query_final_work == test_run.query_final_work;
  if (!rep->work_identical && rep->mismatch.empty()) {
    rep->mismatch = "work totals differ (baseline total " +
                    std::to_string(base_run.total_work) + ", recovered " +
                    std::to_string(test_run.total_work) + ")";
  }
}

// Builds a fresh executor over a given source.
using ExecFactory =
    std::function<std::unique_ptr<AdaptiveExecutor>(StreamSource*)>;

// Runs the baseline, the crashed run and the recovery. Each window starts
// at the beginning under `paces` (BeginWindow + ResumeWindow) unless it
// resumes from a checkpoint.
Result<CrashRunReport> RunImpl(int num_queries, const ExecFactory& make_exec,
                               const PaceConfig& paces,
                               const SourceFactory& make_source,
                               const CrashRecoveryOptions& options) {
  if (options.store == nullptr) {
    return Status::InvalidArgument(
        "crash harness needs a checkpoint store (options.store)");
  }
  CrashRunReport rep;

  // Uninterrupted baseline: the ground truth recovery must reproduce.
  std::vector<std::string> base_outputs;
  std::string base_fp;
  RunResult base_run;
  {
    std::unique_ptr<StreamSource> src = make_source();
    std::unique_ptr<AdaptiveExecutor> exec = make_exec(src.get());
    ISHARE_ASSIGN_OR_RETURN(AdaptiveRunResult res, exec->Run(paces));
    base_run = res.run;
    base_fp = exec->StateFingerprint();
    base_outputs = QueryOutputs(*exec, num_queries);
    rep.total_steps = exec->completed_steps();
  }

  recovery::CheckpointManager mgr(options.store, options.checkpoint);
  const CrashPlan& plan = options.plan;

  // Crashed run: checkpoints via the after-step hook, kill per the plan.
  // Scoped so the executor and source are fully torn down before recovery
  // — nothing survives the crash except what the store committed.
  {
    std::unique_ptr<StreamSource> src = make_source();
    std::unique_ptr<AdaptiveExecutor> exec = make_exec(src.get());
    AdaptiveExecutor* e = exec.get();
    exec->set_after_step_hook([&mgr, &plan, e](int64_t step) -> Status {
      if (plan.phase == CrashPhase::kBetweenStageAndCommit &&
          step == plan.step) {
        // Stage the epoch but die before the commit: the torn blob must
        // be invisible to recovery.
        ISHARE_RETURN_NOT_OK(mgr.Checkpoint(step, *e, /*commit=*/false));
        return Status::Internal(kCrashMarker);
      }
      ISHARE_RETURN_NOT_OK(mgr.OnStepComplete(step, *e));
      if (plan.phase == CrashPhase::kAfterStep && step == plan.step) {
        return Status::Internal(kCrashMarker);
      }
      return Status::OK();
    });
    exec->set_before_subplan_hook(
        [&plan](int64_t step, int subplan) -> Status {
          if (plan.phase == CrashPhase::kDuringSubplan &&
              step == plan.step && subplan == plan.subplan) {
            return Status::Internal(kCrashMarker);
          }
          return Status::OK();
        });
    // Kill between a step's parallel waves: some subplans of the step have
    // executed (and published buffers), the rest never will. Recovery must
    // restore a cut that never exposes the half-finished step.
    exec->set_after_wave_hook([&plan](int64_t step, int wave) -> Status {
      if (plan.phase == CrashPhase::kMidWave && step == plan.step &&
          wave == plan.wave) {
        return Status::Internal(kCrashMarker);
      }
      return Status::OK();
    });
    Result<AdaptiveRunResult> res = exec->Run(paces);
    if (res.ok()) {
      // The plan never fired (kNone, or it targeted a step past the end
      // of the window): compare the completed run directly as a control.
      rep.crashed = false;
      rep.recovery = mgr.stats();
      CompareRuns(base_outputs, base_fp, base_run,
                  QueryOutputs(*exec, num_queries), exec->StateFingerprint(),
                  res->run, &rep);
      return rep;
    }
    if (!IsInjectedCrash(res.status())) return res.status();
    rep.crashed = true;
    rep.crash_step = plan.step;
  }

  // Recovery: fresh source, fresh executor, restore from the latest
  // committed epoch and finish the window. With no usable checkpoint
  // (crash before the first commit, or every epoch torn) the window is
  // simply rerun from scratch — recovery degrades to a restart, never to
  // wrong answers.
  std::unique_ptr<StreamSource> src = make_source();
  std::unique_ptr<AdaptiveExecutor> exec = make_exec(src.get());
  Result<int64_t> recovered = mgr.RecoverLatest(exec.get());
  Result<AdaptiveRunResult> res = Status::Internal("unreachable");
  if (recovered.ok()) {
    rep.recovered_from_checkpoint = true;
    rep.recovered_step = *recovered;
    rep.replayed_deltas = exec->ReplayBacklog();
    obs::Registry()
        .GetCounter("recovery.restore.replayed_deltas")
        .Add(static_cast<double>(rep.replayed_deltas));
    res = exec->ResumeWindow();
  } else if (recovered.status().code() == StatusCode::kNotFound) {
    rep.recovered_from_checkpoint = false;
    res = exec->Run(paces);
  } else {
    return recovered.status();
  }
  ISHARE_RETURN_NOT_OK(res.status());
  rep.recovery = mgr.stats();
  CompareRuns(base_outputs, base_fp, base_run,
              QueryOutputs(*exec, num_queries), exec->StateFingerprint(),
              res->run, &rep);
  return rep;
}

}  // namespace

Result<CrashRunReport> RunCrashRecoveryStatic(
    const SubplanGraph& graph, const PaceConfig& paces,
    const SourceFactory& make_source, const CrashRecoveryOptions& options) {
  return RunImpl(
      graph.num_queries(),
      [&graph, &options](StreamSource* src) {
        return std::make_unique<AdaptiveExecutor>(&graph, src, options.exec);
      },
      paces, make_source, options);
}

Result<CrashRunReport> RunCrashRecoveryAdaptive(
    CostEstimator* estimator, const PaceConfig& paces,
    const std::vector<double>& abs_constraints, const AdaptivePolicy& policy,
    const SourceFactory& make_source, const CrashRecoveryOptions& options) {
  return RunImpl(
      estimator->graph().num_queries(),
      [estimator, &abs_constraints, &policy, &options](StreamSource* src) {
        return std::make_unique<AdaptiveExecutor>(
            estimator, src, abs_constraints, policy, options.exec);
      },
      paces, make_source, options);
}

}  // namespace ishare
