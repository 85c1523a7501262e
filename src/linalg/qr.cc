#include "linalg/qr.h"

#include <cmath>

#include "util/logging.h"

namespace slampred {

Result<QrResult> ComputeQr(const Matrix& a) {
  if (a.empty()) return Status::InvalidArgument("QR of empty matrix");
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("thin QR requires rows >= cols");
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Householder QR accumulating R in `work`; reflectors applied to an
  // identity pad to recover thin Q at the end.
  Matrix work = a;
  std::vector<Vector> reflectors;
  reflectors.reserve(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += work(i, k) * work(i, k);
    norm = std::sqrt(norm);
    Vector v(m);  // Full-length for simplicity; zeros above k.
    if (norm == 0.0) {
      reflectors.push_back(v);
      continue;
    }
    const double alpha = work(k, k) >= 0.0 ? -norm : norm;
    v[k] = work(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i] = work(i, k);
    const double vnorm = v.Norm();
    if (vnorm > 0.0) v /= vnorm;
    reflectors.push_back(v);

    // Apply H = I − 2vvᵀ to the remaining columns.
    for (std::size_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k; i < m; ++i) dot += v[i] * work(i, j);
      dot *= 2.0;
      for (std::size_t i = k; i < m; ++i) work(i, j) -= dot * v[i];
    }
  }

  QrResult res;
  res.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) res.r(i, j) = work(i, j);
  }

  // Q(thin) = H₁H₂...H_n · [I_n; 0], applied in reverse order.
  res.q = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) res.q(j, j) = 1.0;
  for (std::size_t kk = n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    const Vector& v = reflectors[k];
    if (v.Norm() == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k; i < m; ++i) dot += v[i] * res.q(i, j);
      dot *= 2.0;
      for (std::size_t i = k; i < m; ++i) res.q(i, j) -= dot * v[i];
    }
  }
  return res;
}

Matrix OrthonormalizeColumns(const Matrix& a, double tol) {
  const std::size_t m = a.rows();
  std::vector<Vector> basis;
  const double scale = std::max(a.MaxAbs(), 1e-300);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    Vector v = a.Col(j);
    // Two passes of Gram–Schmidt for numerical robustness.
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vector& b : basis) {
        const double proj = v.Dot(b);
        for (std::size_t i = 0; i < m; ++i) v[i] -= proj * b[i];
      }
    }
    const double norm = v.Norm();
    if (norm > tol * scale) {
      v /= norm;
      basis.push_back(std::move(v));
    }
  }
  Matrix out(m, basis.size());
  for (std::size_t j = 0; j < basis.size(); ++j) out.SetCol(j, basis[j]);
  return out;
}

}  // namespace slampred
