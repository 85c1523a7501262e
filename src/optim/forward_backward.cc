#include "optim/forward_backward.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "optim/proximal.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace slampred {

namespace {

// Poisons the iterate when the "fb.grad_step" site fires. Fail kinds
// are mapped to poisoning too: from the solver's point of view a failed
// gradient step *is* a corrupted iterate.
void ApplyGradStepFault(Matrix* s) {
  switch (SLAMPRED_FAULT_HIT("fb.grad_step")) {
    case FaultKind::kNone:
    case FaultKind::kStall:
      break;
    case FaultKind::kPoisonInf:
      if (!s->empty()) s->data()[0] = std::numeric_limits<double>::infinity();
      break;
    case FaultKind::kPoisonNaN:
    case FaultKind::kFailNotConverged:
    case FaultKind::kFailNumerical:
    case FaultKind::kFailIo:
      if (!s->empty()) s->data()[0] = std::numeric_limits<double>::quiet_NaN();
      break;
  }
}

}  // namespace

Result<Matrix> GeneralizedForwardBackward(
    const Objective& objective, const Matrix& s0,
    const ForwardBackwardOptions& options, IterationTrace* trace,
    RecoveryStats* recovery) {
  SLAMPRED_CHECK(s0.rows() == objective.a.rows() &&
                 s0.cols() == objective.a.cols())
      << "initial point shape mismatch";

  const GuardrailOptions& guard = options.guardrails;
  Matrix s = s0;
  double theta = options.theta;
  // Guardrail bookkeeping. `best_s`/`best_change` track the iterate with
  // the smallest accepted step change — the rollback target when the
  // trajectory diverges. On the healthy path these are pure observers.
  int recoveries = 0;
  double best_change = std::numeric_limits<double>::infinity();
  Matrix best_s = s;
  int divergence_streak = 0;
  bool budget_exhausted = false;

  // Rolls back after a bad step; returns false once the recovery budget
  // is spent.
  const auto back_off = [&](int* counter) {
    ++recoveries;
    if (counter != nullptr) ++*counter;
    theta *= guard.backoff_factor;
    return recoveries <= guard.max_recoveries;
  };

  bool converged = false;
  int it = 0;
  for (; it < options.max_iterations && !converged; ++it) {
    const Matrix prev = s;

    // Forward (gradient) step on the smooth linearised part.
    s -= SmoothGradient(objective, s) * theta;
    ApplyGradStepFault(&s);

    // Guardrail: a non-finite gradient step never reaches the prox.
    if (guard.enabled && !MatrixIsFinite(s)) {
      s = prev;
      if (!back_off(recovery != nullptr ? &recovery->nan_rollbacks
                                        : nullptr)) {
        budget_exhausted = true;
        break;
      }
      continue;
    }

    // Backward steps: one prox per non-smooth regularizer.
    if (objective.tau > 0.0) {
      auto prox = GuardedProxNuclear(s, theta * objective.tau,
                                     options.nuclear_prox, guard, recovery);
      if (!prox.ok()) {
        if (!guard.enabled) return prox.status();
        s = prev;
        if (!back_off(recovery != nullptr ? &recovery->prox_rollbacks
                                          : nullptr)) {
          budget_exhausted = true;
          break;
        }
        continue;
      }
      s = std::move(prox).value();
    }
    if (objective.gamma > 0.0) {
      s = ProxL1(s, theta * objective.gamma);
    }

    // Projection onto the admissible set 𝒮.
    if (options.project_unit_box) {
      for (double& v : s.data()) v = std::clamp(v, 0.0, 1.0);
    }
    if (options.keep_symmetric && s.IsSquare()) {
      s = s.Symmetrized();
    }

    // Guardrail: the prox/projection chain must keep the iterate finite.
    if (guard.enabled && !MatrixIsFinite(s)) {
      s = prev;
      if (!back_off(recovery != nullptr ? &recovery->nan_rollbacks
                                        : nullptr)) {
        budget_exhausted = true;
        break;
      }
      continue;
    }

    const double change = (s - prev).NormL1();
    const double scale = std::max(1.0, s.NormL1());

    // Guardrail: divergence detection. A healthy run shrinks the step
    // change; only a blow-up far past the best value seen — sustained
    // for several consecutive steps — triggers a rollback.
    if (guard.enabled) {
      if (change < best_change) {
        best_change = change;
        best_s = s;
        divergence_streak = 0;
      } else if (change >
                 guard.divergence_factor * std::max(best_change, 1e-12)) {
        if (++divergence_streak >= guard.divergence_window) {
          s = best_s;
          divergence_streak = 0;
          if (!back_off(recovery != nullptr
                            ? &recovery->divergence_backoffs
                            : nullptr)) {
            budget_exhausted = true;
            break;
          }
          continue;
        }
      }
    }

    converged = change / scale < options.tol;

    if (trace != nullptr) {
      trace->s_norm_l1.push_back(s.NormL1());
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

}  // namespace slampred
