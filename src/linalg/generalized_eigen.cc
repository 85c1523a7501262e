#include "linalg/generalized_eigen.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/symmetric_eigen.h"
#include "util/logging.h"

namespace slampred {

Result<GeneralizedEigenResult> ComputeGeneralizedEigen(
    const Matrix& a, const Matrix& b, const GeneralizedEigenOptions& options) {
  if (a.empty() || !a.IsSquare() || b.rows() != a.rows() ||
      b.cols() != a.cols()) {
    return Status::InvalidArgument(
        "generalized eigen needs square A, B of equal order");
  }

  // Scale the ridge by the mean diagonal of B so it is dimensionless.
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < b.rows(); ++i) mean_diag += std::fabs(b(i, i));
  mean_diag = std::max(mean_diag / static_cast<double>(b.rows()), 1e-12);

  double ridge = options.ridge * mean_diag;
  Result<CholeskyResult> chol = Status::Internal("unset");
  for (int attempt = 0; attempt <= options.max_ridge_retries; ++attempt) {
    Matrix b_reg = b.Symmetrized();
    for (std::size_t i = 0; i < b_reg.rows(); ++i) b_reg(i, i) += ridge;
    chol = ComputeCholesky(b_reg);
    if (chol.ok()) break;
    ridge *= 100.0;
  }
  if (!chol.ok()) {
    return Status::NumericalError(
        "B could not be regularised to positive definite: " +
        chol.status().message());
  }
  const Matrix& l = chol.value().l;

  // C = L⁻¹ A L⁻ᵀ, computed as forward-substitutions on A then on the
  // transpose of the intermediate.
  Matrix tmp = ForwardSubstituteMatrix(l, a.Symmetrized());
  Matrix c = ForwardSubstituteMatrix(l, tmp.Transposed());
  c = c.Symmetrized();

  auto eig = ComputeSymmetricEigen(c);
  if (!eig.ok()) return eig.status();

  GeneralizedEigenResult res;
  res.eigenvalues = eig.value().eigenvalues;
  // Back-substitute: x = L⁻ᵀ y for each eigenvector y of C.
  res.eigenvectors =
      BackSubstituteTransposeMatrix(l, eig.value().eigenvectors);
  return res;
}

std::vector<std::size_t> SmallestNonZeroIndices(const Vector& lambda,
                                                std::size_t count) {
  double max_abs = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(lambda[i]));
  }
  const double cutoff = 1e-8 * std::max(max_abs, 1e-300);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < lambda.size() && chosen.size() < count; ++i) {
    if (lambda[i] > cutoff) chosen.push_back(i);
  }
  for (std::size_t i = 0; i < lambda.size() && chosen.size() < count; ++i) {
    if (lambda[i] <= cutoff) chosen.push_back(i);
  }
  return chosen;
}

}  // namespace slampred
