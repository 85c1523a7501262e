// Generalized symmetric-definite eigenproblem A x = λ B x.
//
// This is the solver behind the paper's Theorem 1: the optimal projection
// matrix F is formed from the eigenvectors of Z(μL_A + L_S)Zᵀ x =
// λ Z L_D Zᵀ x belonging to the smallest non-zero eigenvalues. B built
// from a graph Laplacian is only positive *semi*-definite, so a caller-
// controlled ridge εI is added before the Cholesky reduction.

#ifndef SLAMPRED_LINALG_GENERALIZED_EIGEN_H_
#define SLAMPRED_LINALG_GENERALIZED_EIGEN_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace slampred {

/// Eigenpairs of A x = λ B x, sorted ascending by eigenvalue. Vectors are
/// B-orthonormal: XᵀB X = I.
struct GeneralizedEigenResult {
  Vector eigenvalues;   ///< Ascending.
  Matrix eigenvectors;  ///< Column j pairs with eigenvalues[j].
};

/// Options for the reduction.
struct GeneralizedEigenOptions {
  /// Ridge added to B (times its mean diagonal) to guarantee positive
  /// definiteness when B is a singular Laplacian product.
  double ridge = 1e-8;
  /// Retries with a 100x larger ridge if Cholesky still fails.
  int max_ridge_retries = 6;
};

/// Solves the symmetric-definite problem by Cholesky reduction:
/// B+εI = L Lᵀ, C = L⁻¹ A L⁻ᵀ (symmetric), Jacobi-eigen of C, and back-
/// substitution of the vectors. Requires A symmetric and B symmetric
/// PSD of the same order.
Result<GeneralizedEigenResult> ComputeGeneralizedEigen(
    const Matrix& a, const Matrix& b,
    const GeneralizedEigenOptions& options = {});

/// Theorem 1's eigenvector choice over ascending eigenvalues `lambda`:
/// the indices of the `count` smallest eigenvalues strictly greater than
/// 1e-8 · max|λ| (the "smallest non-zero" ones), ascending. If fewer
/// qualify, the near-zero remainder pads the list, also ascending. At
/// most min(count, |λ|) indices; a NaN eigenvalue is never chosen.
std::vector<std::size_t> SmallestNonZeroIndices(const Vector& lambda,
                                                std::size_t count);

}  // namespace slampred

#endif  // SLAMPRED_LINALG_GENERALIZED_EIGEN_H_
