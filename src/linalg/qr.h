// QR factorisation by Householder reflections, and the orthonormalisation
// used by the embedding solver's basis cleanups.

#ifndef SLAMPRED_LINALG_QR_H_
#define SLAMPRED_LINALG_QR_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace slampred {

/// Thin QR factorisation A = Q R for A (m x n, m >= n): Q is m x n with
/// orthonormal columns and R is n x n upper-triangular.
struct QrResult {
  Matrix q;  ///< Orthonormal columns (m x n).
  Matrix r;  ///< Upper triangular (n x n).
};

/// Computes the thin QR factorisation of `a` (requires rows >= cols).
Result<QrResult> ComputeQr(const Matrix& a);

/// Returns an orthonormal basis for the column space of `a` (modified
/// Gram–Schmidt with re-orthogonalisation, dropping near-dependent
/// columns). The result has a.rows() rows and rank(a) columns.
Matrix OrthonormalizeColumns(const Matrix& a, double tol = 1e-10);

}  // namespace slampred

#endif  // SLAMPRED_LINALG_QR_H_
