#include "linalg/randomized_svd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/matrix_ops.h"
#include "linalg/qr.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace slampred {

Result<SvdResult> ComputeRandomizedSvd(const Matrix& a,
                                       const RandomizedSvdOptions& options) {
  // Outermost scope: the nested ComputeSvd of the sketch counts once.
  SvdTimerScope svd_timer;
  if (a.empty()) {
    return Status::InvalidArgument("randomized SVD of empty matrix");
  }
  if (options.rank == 0) {
    return Status::InvalidArgument("rank must be positive");
  }
  // Fail fast on poisoned input: the sketch would only smear the NaNs.
  for (double v : a.data()) {
    if (!std::isfinite(v)) {
      return Status::NumericalError(
          "randomized SVD input contains non-finite entries");
    }
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(options.rank, std::min(m, n));
  const std::size_t sketch =
      std::min(k + options.oversampling, std::min(m, n));

  // Stage A: find an orthonormal basis Q for the range of A.
  Rng rng(options.seed);
  Matrix omega = Matrix::RandomGaussian(n, sketch, rng);
  Matrix y = a * omega;                       // m x sketch.
  Matrix q = OrthonormalizeColumns(y);
  for (int it = 0; it < options.power_iterations; ++it) {
    // Subspace iteration: Q <- orth(A Aᵀ Q), re-orthonormalising at each
    // half-step for numerical stability.
    Matrix z = MultiplyAtB(a, q);             // n x sketch.
    z = OrthonormalizeColumns(z);
    q = OrthonormalizeColumns(a * z);         // m x sketch.
  }
  if (q.cols() == 0) {
    // A is (numerically) zero: return a rank-k zero decomposition.
    SvdResult res;
    res.u = Matrix(m, k);
    res.v = Matrix(n, k);
    res.singular_values = Vector(k, 0.0);
    return res;
  }

  // Stage B: SVD of the small projected matrix B = Qᵀ A (sketch x n).
  Matrix b = MultiplyAtB(q, a);
  auto small_svd = ComputeSvd(b);
  if (!small_svd.ok()) return small_svd.status();
  const SvdResult& dec = small_svd.value();

  const std::size_t keep = std::min<std::size_t>(k, dec.singular_values.size());
  SvdResult res;
  res.u = Matrix(m, keep);
  res.v = Matrix(n, keep);
  res.singular_values = Vector(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    res.singular_values[r] = dec.singular_values[r];
    for (std::size_t j = 0; j < n; ++j) res.v(j, r) = dec.v(j, r);
  }
  // U = Q · U_small, row-parallel (c ascends per element, one writing
  // chunk per row of U — bit-identical for any thread count).
  const std::size_t qc = q.cols();
  ParallelFor(0, m, GrainForWork(keep * qc),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t r = 0; r < keep; ++r) {
                    double sum = 0.0;
                    for (std::size_t c = 0; c < qc; ++c) {
                      sum += q(i, c) * dec.u(c, r);
                    }
                    res.u(i, r) = sum;
                  }
                }
              });
  return res;
}

Result<Matrix> ProxNuclearRandomized(const Matrix& s, double threshold,
                                     const RandomizedSvdOptions& options) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("negative nuclear threshold");
  }
  // Shares the "svd.prox" injection site with the exact prox backends
  // (proximal.cc) — the fallback chain in optim/guardrails.cc must see
  // the same fault regardless of which primary backend is active.
  switch (SLAMPRED_FAULT_HIT("svd.prox")) {
    case FaultKind::kFailNotConverged:
      return Status::NotConverged("injected fault at svd.prox");
    case FaultKind::kFailNumerical:
    case FaultKind::kFailIo:
      return Status::NumericalError("injected fault at svd.prox");
    case FaultKind::kPoisonNaN:
    case FaultKind::kPoisonInf: {
      Matrix poisoned(s.rows(), s.cols(),
                      std::numeric_limits<double>::quiet_NaN());
      return poisoned;
    }
    case FaultKind::kNone:
    case FaultKind::kStall:
      break;
  }
  auto svd = ComputeRandomizedSvd(s, options);
  if (!svd.ok()) return svd.status();
  const SvdResult& dec = svd.value();

  // Ranks surviving the shrinkage (sorted descending → prefix).
  std::size_t keep = 0;
  std::vector<double> shrunk(dec.singular_values.size(), 0.0);
  for (std::size_t r = 0; r < dec.singular_values.size(); ++r) {
    shrunk[r] = dec.singular_values[r] - threshold;
    if (shrunk[r] <= 0.0) break;
    ++keep;
  }

  Matrix out(s.rows(), s.cols());
  const std::size_t ncols = s.cols();
  // Row-parallel reconstruction; r ascends per element, exactly as the
  // serial rank-1 accumulation did.
  ParallelFor(0, s.rows(), GrainForWork(keep * ncols),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t i = row0; i < row1; ++i) {
                  for (std::size_t r = 0; r < keep; ++r) {
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

}  // namespace slampred
