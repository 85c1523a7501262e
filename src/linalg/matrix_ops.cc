#include "linalg/matrix_ops.h"

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/gemm_kernel.h"
#include "linalg/svd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

Matrix GramAtA(const Matrix& a) {
  const std::size_t n = a.cols();
  const std::size_t inner = a.rows();
  Matrix g(n, n);
  const double* ad = a.data().data();
  double* gd = g.data().data();
  // Upper triangle through the shared micro-kernel (pa = Aᵀ read in
  // place, col_begin(i) = i), one writing chunk per output row.
  ParallelFor(0, n, GrainForWork(inner * n),
              [&](std::size_t row0, std::size_t row1) {
                internal::GemmAccumulateRows(
                    row0, row1, inner, n,
                    [ad, n](std::size_t i, std::size_t k) {
                      return ad[k * n + i];
                    },
                    ad, gd, [](std::size_t i) { return i; });
              });
  ParallelFor(0, n, GrainForWork(n),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
                }
              });
  return g;
}

Matrix GramAAt(const Matrix& a) { return MultiplyABt(a, a); }

Matrix MultiplyABt(const Matrix& a, const Matrix& b) {
  SLAMPRED_CHECK(a.cols() == b.cols()) << "A*Bt shape mismatch";
  const std::size_t inner = a.cols();
  Matrix out(a.rows(), b.rows());
  ParallelFor(
      0, a.rows(), GrainForWork(inner * b.rows()),
      [&](std::size_t row0, std::size_t row1) {
        // Zero-skip fast path (symmetric with MultiplyAtB/GramAtA): the
        // nonzeros of row i are gathered once, then every dot against a
        // row of B walks only them — k stays ascending per element.
        std::vector<std::pair<std::size_t, double>> nonzeros;
        nonzeros.reserve(inner);
        for (std::size_t i = row0; i < row1; ++i) {
          nonzeros.clear();
          for (std::size_t k = 0; k < inner; ++k) {
            const double aik = a(i, k);
            if (aik != 0.0) nonzeros.emplace_back(k, aik);
          }
          if (nonzeros.empty()) continue;
          if (nonzeros.size() == inner) {
            // Dense row: direct dots, no indirection.
            for (std::size_t j = 0; j < b.rows(); ++j) {
              double sum = 0.0;
              for (std::size_t k = 0; k < inner; ++k) {
                sum += a(i, k) * b(j, k);
              }
              out(i, j) = sum;
            }
            continue;
          }
          for (std::size_t j = 0; j < b.rows(); ++j) {
            double sum = 0.0;
            for (const auto& [k, aik] : nonzeros) sum += aik * b(j, k);
            out(i, j) = sum;
          }
        }
      });
  return out;
}

Matrix MultiplyAtB(const Matrix& a, const Matrix& b) {
  SLAMPRED_CHECK(a.rows() == b.rows()) << "At*B shape mismatch";
  const std::size_t inner = a.rows();
  const std::size_t acols = a.cols();
  const std::size_t ncols = b.cols();
  Matrix out(acols, ncols);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* od = out.data().data();
  ParallelFor(0, acols, GrainForWork(inner * ncols),
              [&](std::size_t row0, std::size_t row1) {
                internal::GemmAccumulateRows(
                    row0, row1, inner, ncols,
                    [ad, acols](std::size_t i, std::size_t k) {
                      return ad[k * acols + i];
                    },
                    bd, od, [](std::size_t) { return std::size_t{0}; });
              });
  return out;
}

Result<std::size_t> NumericalRank(const Matrix& m, double tol) {
  auto svd = ComputeSvd(m);
  if (!svd.ok()) return svd.status();
  const auto& sigma = svd.value().singular_values;
  if (sigma.empty()) return std::size_t{0};
  const double cutoff = tol * sigma[0];
  std::size_t rank = 0;
  for (double s : sigma.data()) {
    if (s > cutoff) ++rank;
  }
  return rank;
}

Result<double> NuclearNorm(const Matrix& m) {
  auto svd = ComputeSvd(m);
  if (!svd.ok()) return svd.status();
  return svd.value().singular_values.Sum();
}

double SpectralNormEstimate(const Matrix& m, int iterations) {
  if (m.empty()) return 0.0;
  // Power iteration on the Gram operator v -> Aᵀ(Av).
  Vector v(m.cols(), 1.0);
  v = v.Normalized();
  double sigma = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector av = m * v;
    Vector atav(m.cols());
    ParallelFor(0, m.cols(), GrainForWork(m.rows()),
                [&](std::size_t j0, std::size_t j1) {
                  for (std::size_t j = j0; j < j1; ++j) {
                    double sum = 0.0;
                    for (std::size_t i = 0; i < m.rows(); ++i) {
                      sum += m(i, j) * av[i];
                    }
                    atav[j] = sum;
                  }
                });
    const double norm = atav.Norm();
    if (norm <= 1e-300) return 0.0;
    v = atav * (1.0 / norm);
    sigma = std::sqrt(norm);
  }
  return sigma;
}

}  // namespace slampred
