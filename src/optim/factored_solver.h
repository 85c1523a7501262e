// The factored low-rank solver backend: Algorithm 1 (CCCP over the
// generalized forward–backward inner loop) with the iterate held as
// S = U·Vᵀ (linalg/factored_matrix.h) instead of a dense n×n matrix.
//
// The key identity: with the squared-Frobenius loss and the constant
// CCCP gradient G, the forward (gradient) step is affine in S,
//
//   S_half = S − θ(2(S − A) − G) = (1−2θ)·S + θ·Z,    Z = 2A + G,
//
// so S_half is "low-rank plus sparse" and can be applied to a block of
// vectors in O((nnz + n·r)·k) without ever materialising it. The
// nuclear prox then runs on a randomized range sketch of S_half:
// Q = orth(S_half·Ω), B = S_halfᵀ·Q, S_half ≈ Q·Bᵀ, and the singular
// value shrinkage happens on the k×k core of a thin QR of B — O(n·k²)
// per step instead of the dense path's O(n³). The sketch basis is
// reused as the next step's Ω (and across CCCP outer rounds), so warm
// steps need fewer power iterations.
//
// Documented deviations from the dense oracle (see DESIGN.md §13):
//   * the ℓ₁ prox is replaced by its linearisation over the
//     non-negative orthant, a rank-1 −θγ·1·1ᵀ term folded into the
//     forward step (an entry-wise prox would destroy the low rank);
//   * the [0,1] box projection is skipped (same reason). Both maps are
//     monotone, so rankings are unaffected;
//   * convergence and traces use Frobenius norms (O(n·r²) via Gram
//     matrices) where the dense path uses entry-wise ℓ₁ norms.
// With γ = 0, the box projection off and a full-rank sketch the
// factored path computes exactly what the dense path computes, up to
// floating-point rounding — that regime is the equivalence gate.

#ifndef SLAMPRED_OPTIM_FACTORED_SOLVER_H_
#define SLAMPRED_OPTIM_FACTORED_SOLVER_H_

#include <cstdint>

#include "linalg/csr_matrix.h"
#include "linalg/factored_matrix.h"
#include "optim/cccp.h"
#include "optim/forward_backward.h"
#include "optim/guardrails.h"
#include "optim/objective.h"
#include "optim/solver_backend.h"
#include "util/status.h"

namespace slampred {

/// Problem data of a factored solve. Identical to Objective except the
/// constant CCCP gradient G stays in CSR — densifying it would cost the
/// n² bytes the factored backend exists to avoid. Both matrices are
/// symmetric, as the fit builds them: the solver applies Z = 2A + G in
/// place of Zᵀ.
struct FactoredObjective {
  CsrMatrix a;       ///< Observed (training) adjacency Aᵗ.
  CsrMatrix grad_v;  ///< Constant CCCP gradient G of the intimacy terms.
  double gamma = 0.0;
  double tau = 0.0;
};

/// Nuclear-norm prox of the sketched half step S_half ≈ q·bᵀ (q with
/// orthonormal columns): thin QR on b, SVD of the small core, singular
/// values shrunk by `threshold` and the surviving ranks returned as a
/// FactoredMatrix — O(n·k²) for a k-column sketch. Routed through the
/// same "svd.prox" fault site as the dense prox plus its own
/// "prox.factored" site, with the shared guardrail fallback chain
/// (GuardedProx) retrying the core SVD on a doubled sweep budget
/// (counted in RecoveryStats::svd_fallbacks).
Result<FactoredMatrix> GuardedFactoredProxNuclear(
    const Matrix& q, const Matrix& b, double threshold,
    const GuardrailOptions& guardrails, RecoveryStats* stats);

/// Z = 2A + G, the sparse part of the factored half step, by one sorted
/// row merge (CsrMatrix::AddScaled; sums that cancel to exact zeros are
/// dropped). Takes G by value: passed as an rvalue, it is freed as soon
/// as Z is built.
CsrMatrix HalfStepSparsePart(const CsrMatrix& a, CsrMatrix g);

/// Best rank-(rank+oversampling) approximation of the symmetric CSR
/// matrix `a` via the randomized range finder — the factored solve's
/// S⁰ ≈ Aᵗ (line 1 of Algorithm 1). Deterministic: the sketch seed is
/// fixed.
Result<FactoredMatrix> FactoredApproximation(const CsrMatrix& a,
                                             const FactoredSolverOptions& options);

/// The factored inner loop: the shared guarded loop of
/// optim/guardrails.h (NaN rollback, prox rollback, divergence backoff,
/// recovery budget) over the factored step, with Frobenius-norm
/// convergence tests. `sketch_seed` decorrelates the gaussian draws
/// across CCCP rounds; `warm_basis` (optional in/out) carries the
/// range-finder subspace across calls. IterationTrace fields hold
/// Frobenius norms.
Result<FactoredMatrix> GeneralizedForwardBackwardFactored(
    const FactoredObjective& objective, const FactoredMatrix& s0,
    const ForwardBackwardOptions& options,
    const FactoredSolverOptions& factored, std::uint64_t sketch_seed,
    Matrix* warm_basis, IterationTrace* trace, RecoveryStats* recovery);

/// Algorithm 1 on the factored iterate: S⁰ from FactoredApproximation,
/// then CCCP outer rounds over the factored inner loop with the
/// range-finder basis warm-started from round to round (the subspace
/// reuse path). Runs the shared guarded CCCP loop, so a failed round
/// restarts exactly as on the dense path; the trace's *_l1 series hold
/// Frobenius values in this mode. The objective is taken by value and G
/// is consumed into Z = 2A + G before the first step: move the objective
/// in and G is not kept beside Z.
Result<FactoredMatrix> SolveCccpFactored(FactoredObjective objective,
                                         const CccpOptions& options,
                                         const FactoredSolverOptions& factored,
                                         CccpTrace* trace = nullptr);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_FACTORED_SOLVER_H_
