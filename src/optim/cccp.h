// Proximal-operator-based CCCP (Algorithm 1 of the paper).
//
// The objective u(S) − v(S) is handled by the concave–convex procedure:
// each outer iteration linearises v around the current iterate and
// solves the resulting convex subproblem with the generalized
// forward–backward inner loop. Because v's gradient is a constant matrix
// (Section III-D1), the subproblem is the same in every outer round; the
// outer loop still matters operationally — it restarts the inner loop
// from the warm iterate exactly as Algorithm 1 prescribes — and the
// recorded trace reproduces Figure 3.
//
// Robustness: the outer loop is the shared guarded CCCP loop of
// optim/guardrails.h. If the inner loop fails (persistent fault,
// exhausted recovery budget), the solve backs off the step size and
// restarts the round from the last good iterate a bounded number of
// times before giving up.

#ifndef SLAMPRED_OPTIM_CCCP_H_
#define SLAMPRED_OPTIM_CCCP_H_

#include <vector>

#include "linalg/matrix.h"
#include "optim/forward_backward.h"
#include "optim/guardrails.h"
#include "optim/objective.h"
#include "util/status.h"

namespace slampred {

/// Outer-loop controls; inner controls ride along.
struct CccpOptions {
  ForwardBackwardOptions inner;
  int max_outer_iterations = 3;  ///< CCCP rounds.
  double outer_tol = 1e-6;       ///< ‖ΔS‖₁/max(1,‖S‖₁) across rounds.
};

/// Trace across the whole solve. Step-level series concatenate the inner
/// iterations of all outer rounds (this is what Figure 3 plots).
struct CccpTrace {
  IterationTrace steps;               ///< Concatenated inner trace.
  std::vector<double> outer_change_l1;  ///< ‖S^{(h)} − S^{(h−1)}‖₁ per round.
  int outer_iterations = 0;
  bool converged = false;
  RecoveryStats recovery;         ///< Every guardrail action taken.
};

/// Runs Algorithm 1: S is initialised to the observed adjacency A
/// (line 1), then outer CCCP rounds each run the proximal inner loop.
/// Returns the converged predictor matrix S.
Result<Matrix> SolveCccp(const Objective& objective,
                         const CccpOptions& options,
                         CccpTrace* trace = nullptr);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_CCCP_H_
