// Generalized forward–backward splitting: the inner solver of
// Algorithm 1. Each step alternates
//   S ← S − θ ∇f(S)              (gradient step on the smooth part)
//   S ← prox_{θτ‖·‖_*}(S)         (singular value shrinkage)
//   S ← prox_{θγ‖·‖₁}(S)          (soft thresholding)
// optionally followed by projection onto the admissible set 𝒮
// (entry-wise [0, 1], matching the paper's confidence-score range).
//
// This is the dense backend's step; the loop around it is the shared
// guarded loop of optim/guardrails.h (also run by the factored backend):
// a non-finite or diverging iterate rolls back to the last good one
// with a halved θ, and a failing nuclear prox falls back to the full
// Jacobi SVD. With guardrails at their defaults a healthy run is
// bit-identical to the unguarded loop.

#ifndef SLAMPRED_OPTIM_FORWARD_BACKWARD_H_
#define SLAMPRED_OPTIM_FORWARD_BACKWARD_H_

#include <vector>

#include "linalg/matrix.h"
#include "optim/guardrails.h"
#include "optim/objective.h"
#include "util/status.h"

namespace slampred {

/// Inner-loop controls.
struct ForwardBackwardOptions {
  /// Learning rate θ. The smooth part's gradient is 2(S − A) − G with
  /// Lipschitz constant 2, so any θ < 0.5 is stable; 0.02 converges in
  /// tens of steps. (The paper quotes θ = 0.001 for its unnormalised
  /// loss — the Figure-3 bench reproduces that regime explicitly.)
  double theta = 0.02;
  int max_iterations = 100;  ///< Hard cap on proximal steps.
  double tol = 1e-5;         ///< Converged when ‖ΔS‖₁/max(1,‖S‖₁) < tol.
  bool project_unit_box = true;  ///< Clamp S into [0, 1] each step.
  bool keep_symmetric = true;    ///< Re-symmetrise after each step.
  GuardrailOptions guardrails;   ///< Rollback/backoff/fallback controls.
};

/// Per-step trace used by the Figure-3 convergence experiment. Recovery
/// steps (rollbacks) are not recorded in the per-step series — only
/// accepted iterates are.
struct IterationTrace {
  std::vector<double> s_norm_l1;    ///< ‖S^h‖₁ after step h.
  std::vector<double> s_change_l1;  ///< ‖S^h − S^{h−1}‖₁ after step h.
  bool converged = false;
  int iterations = 0;
};

/// Runs the generalized forward–backward loop from `s0` on the
/// linearised objective (Objective::grad_v is the frozen CCCP gradient).
/// `trace` is appended to when non-null; recovery actions are counted
/// into `recovery` when non-null. Fails with kNotConverged when the
/// guardrail recovery budget is exhausted by a persistent fault, or
/// propagates the nuclear-prox failure directly when guardrails are
/// disabled.
Result<Matrix> GeneralizedForwardBackward(
    const Objective& objective, const Matrix& s0,
    const ForwardBackwardOptions& options, IterationTrace* trace = nullptr,
    RecoveryStats* recovery = nullptr);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_FORWARD_BACKWARD_H_
