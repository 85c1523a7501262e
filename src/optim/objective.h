// The SLAMPRED objective (Section III-C4 / III-D of the paper):
//
//   min_{S∈𝒮}  ‖S − Aᵗ‖²_F  −  Σ_k α_k ‖S ∘ X̂^k‖₁
//              + γ‖S‖₁ + τ‖S‖_*
//
// decomposed as u(S) − v(S) with
//   u(S) = ‖S − Aᵗ‖²_F + γ‖S‖₁ + τ‖S‖_*     (convex)
//   v(S) = Σ_k α_k ‖S ∘ X̂^k‖₁                (convex; subtracted)
//
// The empirical loss is the squared Frobenius norm, the form the
// paper's experiments fit (Section III-D also names a hinge loss).
//
// With non-negative adapted features, ∇v is the constant matrix
// G = Σ_k α_k Σ_c X̂^k(c,:,:) used by the CCCP linearisation. The fit
// builds G once, in CSR, one row at a time (BuildIntimacyGradientCsr);
// the feature slices are read through their row visitor, so the
// preferential-attachment degree slice is never materialised.

#ifndef SLAMPRED_OPTIM_OBJECTIVE_H_
#define SLAMPRED_OPTIM_OBJECTIVE_H_

#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/sparse_tensor3.h"
#include "linalg/tensor3.h"

namespace slampred {

/// Immutable problem data for one solve. The observed adjacency stays in
/// CSR (it is the sparsest matrix in the pipeline); only the solver
/// iterate S and grad_v are dense. Loss kernels read A through a flat
/// cursor that supplies exact zeros for absent entries, preserving the
/// dense kernels' chunking and accumulation order bit for bit.
struct Objective {
  CsrMatrix a;     ///< Observed (training) adjacency Aᵗ.
  Matrix grad_v;   ///< Constant CCCP gradient G of the intimacy terms.
  double gamma;    ///< ℓ₁ regularization weight.
  double tau;      ///< Nuclear-norm regularization weight.
};

/// Builds G = Σ_k α_k Σ_c tensors[k](c,:,:) densely — the test oracle of
/// BuildIntimacyGradientCsr. Each tensor must be square n x n in its
/// last two dims with n = a-rows; weights.size() must match
/// tensors.size().
Matrix BuildIntimacyGradient(const std::vector<Tensor3>& tensors,
                             const std::vector<double>& weights,
                             std::size_t n);

/// The fit's one G builder: G = α_t Σ_c target(c,:,:) + Σ_k α_k
/// sources[k], in CSR, where each sources[k] is a source network's
/// adapted slices already summed in target coordinates. One parallel
/// pass builds each row of G once, reading the target through its row
/// visitor (so a degree slice is never materialised): per entry the
/// target slices add in ascending c, the sum is scaled by α_t, then
/// g + α_k·s_k runs over the sources in order, each step with the
/// arithmetic and exact-zero dropping of a CsrMatrix::AddScaled merge.
/// G therefore densifies to the dense oracle over [target, sources as
/// one-slice tensors] bit for bit, for any thread count. A network
/// whose weight is 0 (or an empty target tensor) is skipped.
CsrMatrix BuildIntimacyGradientCsr(const SparseTensor3& target,
                                   double target_weight,
                                   const std::vector<CsrMatrix>& sources,
                                   const std::vector<double>& source_weights);

/// Smooth part of the linearised subproblem:
/// f(S) = ‖S − A‖²_F − <S, G>.
double SmoothValue(const Objective& objective, const Matrix& s);

/// Gradient of the smooth part: 2(S − A) − G.
Matrix SmoothGradient(const Objective& objective, const Matrix& s);

/// Full non-smooth objective value u(S) − v(S) evaluated literally (the
/// intimacy term uses the exact entry-wise ‖S ∘ X̂‖₁, not the
/// linearisation); used for traces and tests.
double FullObjectiveValue(const Objective& objective, const Matrix& s,
                          const std::vector<Tensor3>& tensors,
                          const std::vector<double>& weights);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_OBJECTIVE_H_
