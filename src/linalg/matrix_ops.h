// Free-function matrix operations beyond Matrix's own members: Gram
// products, rank estimation, and the small helpers the optimizer and
// embedding modules share.

#ifndef SLAMPRED_LINALG_MATRIX_OPS_H_
#define SLAMPRED_LINALG_MATRIX_OPS_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

/// Computes AᵀA (cols x cols Gram matrix) without forming Aᵀ.
Matrix GramAtA(const Matrix& a);

/// Computes AAᵀ (rows x rows Gram matrix).
Matrix GramAAt(const Matrix& a);

/// Computes A·Bᵀ without materialising Bᵀ; requires a.cols()==b.cols().
Matrix MultiplyABt(const Matrix& a, const Matrix& b);

/// Computes Aᵀ·B without materialising Aᵀ; requires a.rows()==b.rows().
Matrix MultiplyAtB(const Matrix& a, const Matrix& b);

/// Numerical rank: number of singular values > tol * max singular value.
/// Returns an error if the SVD fails.
Result<std::size_t> NumericalRank(const Matrix& m, double tol = 1e-9);

/// Sum of singular values ‖X‖_* (via SVD).
Result<double> NuclearNorm(const Matrix& m);

/// Spectral norm (largest singular value) via power iteration on XᵀX;
/// cheap and sufficient for step-size selection.
double SpectralNormEstimate(const Matrix& m, int iterations = 50);

}  // namespace slampred

#endif  // SLAMPRED_LINALG_MATRIX_OPS_H_
