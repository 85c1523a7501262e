#include "optim/proximal.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

Matrix ProxL1(const Matrix& s, double threshold) {
  SLAMPRED_CHECK(threshold >= 0.0) << "negative l1 threshold";
  Matrix out = s;
  double* data = out.data().data();
  ParallelFor(0, out.data().size(), GrainForWork(1),
              [&](std::size_t idx0, std::size_t idx1) {
                for (std::size_t idx = idx0; idx < idx1; ++idx) {
                  double& v = data[idx];
                  if (v > threshold) {
                    v -= threshold;
                  } else if (v < -threshold) {
                    v += threshold;
                  } else {
                    v = 0.0;
                  }
                }
              });
  return out;
}

Result<Matrix> ProxNuclear(const Matrix& s, double threshold,
                           const SvdOptions& svd_options) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("negative nuclear threshold");
  }
  auto svd = ComputeSvd(s, svd_options);
  if (!svd.ok()) return svd.status();
  const SvdResult& dec = svd.value();
  const std::size_t k = dec.singular_values.size();

  // Shrink every singular value up front (sorted descending, but scan
  // all of them as the old `continue` loop did for safety).
  std::vector<double> shrunk(k, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    shrunk[r] = dec.singular_values[r] - threshold;
  }

  Matrix out(s.rows(), s.cols());
  const std::size_t ncols = s.cols();
  // Row-parallel reconstruction; r ascends per element, exactly as the
  // serial rank-1 accumulation did, so results are bit-identical.
  ParallelFor(0, s.rows(), GrainForWork(k * ncols),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t r = 0; r < k; ++r) {
                    if (shrunk[r] <= 0.0) continue;
                    const double ui = dec.u(i, r) * shrunk[r];
                    if (ui == 0.0) continue;
                    for (std::size_t j = 0; j < ncols; ++j) {
                      out(i, j) += ui * dec.v(j, r);
                    }
                  }
                }
              });
  return out;
}

Result<Matrix> ProxNuclearSymmetric(const Matrix& s, double threshold) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("negative nuclear threshold");
  }
  auto eig = ComputeSymmetricEigen(s);
  if (!eig.ok()) return eig.status();
  const SymmetricEigenResult& dec = eig.value();
  const std::size_t n = s.rows();

  // Shrink every eigenvalue up front; zero means "skip this rank".
  std::vector<double> shrunk(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double lambda = dec.eigenvalues[r];
    const double mag = std::fabs(lambda) - threshold;
    if (mag <= 0.0) continue;
    shrunk[r] = lambda >= 0.0 ? mag : -mag;
  }

  Matrix out(n, n);
  // Row-parallel over the upper triangle (j >= i); r ascends per
  // element exactly as the serial rank-1 accumulation did.
  ParallelFor(0, n, GrainForWork(n * n),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t r = 0; r < n; ++r) {
                    if (shrunk[r] == 0.0) continue;
                    const double qi = dec.eigenvectors(i, r) * shrunk[r];
                    if (qi == 0.0) continue;
                    for (std::size_t j = i; j < n; ++j) {
                      out(i, j) += qi * dec.eigenvectors(j, r);
                    }
                  }
                }
              });
  // Mirror the computed upper triangle (each lower element has exactly
  // one writing chunk).
  ParallelFor(0, n, GrainForWork(n),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
                }
              });
  return out;
}

Result<Matrix> ProxNuclearAuto(const Matrix& s, double threshold) {
  if (s.IsSquare() && s.IsSymmetric(1e-9 * std::max(1.0, s.MaxAbs()))) {
    return ProxNuclearSymmetric(s, threshold);
  }
  return ProxNuclear(s, threshold);
}

}  // namespace slampred
