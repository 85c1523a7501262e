#include "optim/guardrails.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/factored_matrix.h"
#include "optim/cccp.h"
#include "optim/forward_backward.h"

namespace slampred {

namespace {

// Per-iterate-type views the loops are written against: the dense path
// measures steps in entry-wise ℓ₁, the factored path in Frobenius norm
// (O(n·r²) through Gram matrices).
bool IsFinite(const Matrix& s) { return MatrixIsFinite(s); }
bool IsFinite(const FactoredMatrix& s) { return s.IsFinite(); }
double StepNorm(const Matrix& s) { return s.NormL1(); }
double StepNorm(const FactoredMatrix& s) { return s.FrobeniusNorm(); }
double StepChange(const Matrix& s, const Matrix& prev) {
  return (s - prev).NormL1();
}
double StepChange(const FactoredMatrix& s, const FactoredMatrix& prev) {
  return s.DistanceFrobenius(prev);
}

bool IsRetryable(StatusCode code) {
  return code == StatusCode::kNotConverged ||
         code == StatusCode::kNumericalError;
}

}  // namespace

std::string RecoveryStats::ToString() const {
  std::string out =
      "recoveries{nan_rollbacks=" + std::to_string(nan_rollbacks) +
      ", prox_rollbacks=" + std::to_string(prox_rollbacks) +
      ", divergence_backoffs=" + std::to_string(divergence_backoffs) +
      ", svd_fallbacks=" + std::to_string(svd_fallbacks) +
      ", checkpoint_resumes=" + std::to_string(checkpoint_resumes);
  // Serving-side counters only show up when serving code contributed.
  if (swap_failures != 0 || batch_failures != 0) {
    out += ", swap_failures=" + std::to_string(swap_failures) +
           ", batch_failures=" + std::to_string(batch_failures);
  }
  if (shed != 0 || deadline_exceeded != 0) {
    out += ", shed=" + std::to_string(shed) +
           ", deadline_exceeded=" + std::to_string(deadline_exceeded);
  }
  if (breaker_trips != 0 || degraded_responses != 0) {
    out += ", breaker_trips=" + std::to_string(breaker_trips) +
           ", degraded_responses=" + std::to_string(degraded_responses);
  }
  if (artifact_rollbacks != 0) {
    out += ", artifact_rollbacks=" + std::to_string(artifact_rollbacks);
  }
  return out + "}";
}

bool MatrixIsFinite(const Matrix& m) {
  for (double v : m.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void ApplyGradStepFault(Matrix* half_step) {
  const FaultKind kind = SLAMPRED_FAULT_HIT("fb.grad_step");
  if (kind == FaultKind::kNone || kind == FaultKind::kStall) return;
  PoisonFirstEntry(
      kind == FaultKind::kPoisonInf ? kind : FaultKind::kPoisonNaN,
      half_step);
}

Status HitProxFaultSite(const char* site, FaultKind* kind) {
  *kind = SLAMPRED_FAULT_HIT(site);
  switch (*kind) {
    case FaultKind::kFailNotConverged:
      return Status::NotConverged(std::string("injected fault at ") + site);
    case FaultKind::kFailNumerical:
    case FaultKind::kFailIo:
      return Status::NumericalError(std::string("injected fault at ") + site);
    default:
      return Status::OK();
  }
}

void PoisonFirstEntry(FaultKind kind, Matrix* m) {
  if (m->empty()) return;
  if (kind == FaultKind::kPoisonNaN) {
    m->data()[0] = std::numeric_limits<double>::quiet_NaN();
  } else if (kind == FaultKind::kPoisonInf) {
    m->data()[0] = std::numeric_limits<double>::infinity();
  }
}

template <typename Iterate>
Result<Iterate> GuardedProx(
    const std::function<Result<Iterate>(const SvdOptions*)>& attempt,
    const GuardrailOptions& guardrails, RecoveryStats* stats) {
  Result<Iterate> primary = attempt(nullptr);
  if (primary.ok() && IsFinite(primary.value())) return primary;
  if (!guardrails.enabled) return primary;
  // Only decomposition trouble is retryable; argument errors are not.
  if (!primary.ok() && !IsRetryable(primary.status().code())) return primary;

  Status last = primary.ok()
                    ? Status::NumericalError(
                          "nuclear prox produced non-finite entries")
                    : primary.status();
  // The full Jacobi SVD with a doubled sweep budget per attempt. It is
  // independent of the primary (no symmetric-eigen shortcut, no fault
  // site), so a backend-specific failure — or an injected one — does
  // not repeat here.
  SvdOptions svd_options;
  for (int retry = 0; retry < guardrails.max_svd_fallbacks; ++retry) {
    svd_options.max_sweeps *= 2;
    Result<Iterate> fallback = attempt(&svd_options);
    if (fallback.ok() && IsFinite(fallback.value())) {
      if (stats != nullptr) ++stats->svd_fallbacks;
      return fallback;
    }
    last = fallback.ok()
               ? Status::NumericalError("fallback nuclear prox non-finite")
               : fallback.status();
  }
  return last;
}

template <typename Iterate>
Result<Iterate> GuardedForwardBackward(ForwardBackwardStep<Iterate>& step,
                                       const Iterate& s0,
                                       const ForwardBackwardOptions& options,
                                       IterationTrace* trace,
                                       RecoveryStats* recovery) {
  const GuardrailOptions& guard = options.guardrails;
  Iterate s = s0;
  double theta = options.theta;
  // `best_s`/`best_change` track the iterate with the smallest accepted
  // step change — the rollback target when the trajectory diverges. On
  // the healthy path these are pure observers.
  int recoveries = 0;
  double best_change = std::numeric_limits<double>::infinity();
  Iterate best_s = s;
  int divergence_streak = 0;
  bool budget_exhausted = false;

  // Every rollback keeps (or restores) a good `s` and backs θ off;
  // returns false once the recovery budget is spent.
  const auto back_off = [&](int RecoveryStats::*counter) {
    ++recoveries;
    if (recovery != nullptr) ++(recovery->*counter);
    theta *= guard.backoff_factor;
    budget_exhausted = recoveries > guard.max_recoveries;
    return !budget_exhausted;
  };

  bool converged = false;
  int it = 0;
  for (; it < options.max_iterations && !converged; ++it) {
    // A non-finite half step never reaches the prox.
    step.Forward(s, theta, it);
    if (guard.enabled && !step.HalfStepFinite()) {
      if (!back_off(&RecoveryStats::nan_rollbacks)) break;
      continue;
    }
    Result<Iterate> next = step.Backward(theta, guard, recovery);
    if (!next.ok()) {
      if (!guard.enabled) return next.status();
      if (!back_off(&RecoveryStats::prox_rollbacks)) break;
      continue;
    }
    // The backward chain must keep the iterate finite.
    if (guard.enabled && !IsFinite(next.value())) {
      if (!back_off(&RecoveryStats::nan_rollbacks)) break;
      continue;
    }

    const double change = StepChange(next.value(), s);
    const double norm = StepNorm(next.value());

    // Divergence: a healthy run shrinks the step change; only a blow-up
    // far past the best value seen — sustained for several consecutive
    // steps — rolls back to the best iterate.
    if (guard.enabled) {
      if (change < best_change) {
        best_change = change;
        best_s = next.value();
        divergence_streak = 0;
      } else if (change >
                 guard.divergence_factor * std::max(best_change, 1e-12)) {
        if (++divergence_streak >= guard.divergence_window) {
          s = best_s;
          divergence_streak = 0;
          if (!back_off(&RecoveryStats::divergence_backoffs)) break;
          continue;
        }
      }
    }

    s = std::move(next).value();
    converged = change / std::max(1.0, norm) < options.tol;
    step.Accept(s);
    if (trace != nullptr) {
      trace->s_norm_l1.push_back(norm);
      trace->s_change_l1.push_back(change);
    }
  }

  if (trace != nullptr) {
    trace->converged = converged;
    trace->iterations += it;
  }
  if (budget_exhausted) {
    return Status::NotConverged(
        "forward-backward recovery budget exhausted after " +
        std::to_string(recoveries) + " recoveries");
  }
  return s;
}

template <typename Iterate>
Result<Iterate> GuardedCccp(ForwardBackwardStep<Iterate>& step, Iterate s,
                            const CccpOptions& options, CccpTrace* trace) {
  const GuardrailOptions& guard = options.inner.guardrails;
  RecoveryStats local_recovery;
  RecoveryStats* recovery =
      trace != nullptr ? &trace->recovery : &local_recovery;
  IterationTrace* inner_trace = trace != nullptr ? &trace->steps : nullptr;
  ForwardBackwardOptions inner_options = options.inner;

  // `s` is the last good iterate, which each round starts from and a
  // failed round restarts from.
  int resumes = 0;
  bool converged = false;
  int outer = 0;
  while (outer < options.max_outer_iterations && !converged) {
    step.BeginRound(outer);
    Result<Iterate> inner =
        GuardedForwardBackward(step, s, inner_options, inner_trace, recovery);
    if (!inner.ok()) {
      // A failed round (persistent fault, exhausted inner budget)
      // restarts from the last good iterate with a backed-off step size
      // instead of abandoning the whole solve.
      if (guard.enabled && resumes < guard.max_checkpoint_resumes &&
          IsRetryable(inner.status().code())) {
        ++resumes;
        ++recovery->checkpoint_resumes;
        inner_options.theta *= guard.backoff_factor;
        continue;
      }
      return inner.status();
    }
    // The backoff is episodic: a clean round ends the recovery episode,
    // so a transient fault leaves no permanent step-size change (and the
    // solve converges to the same fixed point as a fault-free run).
    inner_options.theta = options.inner.theta;

    const double change = StepChange(inner.value(), s);
    converged =
        change / std::max(1.0, StepNorm(inner.value())) < options.outer_tol;
    if (trace != nullptr) trace->outer_change_l1.push_back(change);
    s = std::move(inner).value();
    ++outer;
  }
  if (trace != nullptr) {
    trace->outer_iterations = outer;
    trace->converged = converged;
  }
  return s;
}

template Result<Matrix> GuardedProx<Matrix>(
    const std::function<Result<Matrix>(const SvdOptions*)>&,
    const GuardrailOptions&, RecoveryStats*);
template Result<FactoredMatrix> GuardedProx<FactoredMatrix>(
    const std::function<Result<FactoredMatrix>(const SvdOptions*)>&,
    const GuardrailOptions&, RecoveryStats*);
template Result<Matrix> GuardedForwardBackward<Matrix>(
    ForwardBackwardStep<Matrix>&, const Matrix&,
    const ForwardBackwardOptions&, IterationTrace*, RecoveryStats*);
template Result<FactoredMatrix> GuardedForwardBackward<FactoredMatrix>(
    ForwardBackwardStep<FactoredMatrix>&, const FactoredMatrix&,
    const ForwardBackwardOptions&, IterationTrace*, RecoveryStats*);
template Result<Matrix> GuardedCccp<Matrix>(ForwardBackwardStep<Matrix>&,
                                            Matrix, const CccpOptions&,
                                            CccpTrace*);
template Result<FactoredMatrix> GuardedCccp<FactoredMatrix>(
    ForwardBackwardStep<FactoredMatrix>&, FactoredMatrix,
    const CccpOptions&, CccpTrace*);

}  // namespace slampred
