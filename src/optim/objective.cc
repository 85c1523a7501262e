#include "optim/objective.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/matrix_ops.h"
#include "linalg/svd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

Matrix BuildIntimacyGradient(const std::vector<Tensor3>& tensors,
                             const std::vector<double>& weights,
                             std::size_t n) {
  SLAMPRED_CHECK(tensors.size() == weights.size())
      << "one weight per tensor required";
  Matrix g(n, n);
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    if (weights[k] == 0.0 || tensors[k].empty()) continue;
    SLAMPRED_CHECK(tensors[k].dim1() == n && tensors[k].dim2() == n)
        << "tensor " << k << " shape mismatch";
    g += tensors[k].SumSlices() * weights[k];
  }
  return g;
}

CsrMatrix BuildIntimacyGradientCsr(const SparseTensor3& target,
                                   double target_weight,
                                   const std::vector<CsrMatrix>& sources,
                                   const std::vector<double>& source_weights) {
  SLAMPRED_CHECK(sources.size() == source_weights.size())
      << "one weight per source required";
  const std::size_t n = target.dim1();
  const bool with_target = target_weight != 0.0 && !target.empty();
  for (std::size_t k = 0; k < sources.size(); ++k) {
    SLAMPRED_CHECK(source_weights[k] == 0.0 ||
                   (sources[k].rows() == n && sources[k].cols() == n))
        << "source " << k << " slice sum shape mismatch";
  }
  const std::size_t terms = target.dim0() + sources.size();
  // The running sums of a CsrMatrix::AddScaled chain: an entry a merge
  // drops as an exact zero is a signed zero, and adding to a signed zero
  // gives what the merge's absent-entry branch gives, so the plain sums
  // store the chain's values and drop the same zeros.
  return CsrMatrix::FromRowFill(
      n, n, GrainForWork(n * terms),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        SparseAccumulator acc(n);
        for (std::size_t i = row0; i < row1; ++i) {
          if (with_target) {
            // The slices sum in ascending c, then the sum is scaled once.
            for (std::size_t c = 0; c < target.dim0(); ++c) {
              target.ForEachInRow(
                  c, i, [&](std::size_t j, double v) { acc.Add(j, v); });
            }
            acc.Scale(target_weight);
          }
          for (std::size_t k = 0; k < sources.size(); ++k) {
            if (source_weights[k] == 0.0) continue;
            const CsrMatrix& source = sources[k];
            for (std::size_t p = source.row_ptr()[i];
                 p < source.row_ptr()[i + 1]; ++p) {
              acc.Add(source.col_idx()[p],
                      source_weights[k] * source.values()[p]);
            }
          }
          acc.Drain([&](std::size_t j, double g) { out.Push(j, g); });
          out.EndRow();
        }
      });
}

namespace {

// Calls fn(flat, a_value) for every row-major flat index in [f0, f1) of
// `a`, supplying the stored value or an exact 0.0 for absent entries.
// This lets the loss kernels keep the dense path's flat chunking (and
// thus its reduction order) while A stays CSR.
template <typename Fn>
void ForEachFlatWithA(const CsrMatrix& a, std::size_t f0, std::size_t f1,
                      Fn fn) {
  const std::size_t cols = a.cols();
  if (cols == 0) return;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  std::size_t f = f0;
  std::size_t i = f0 / cols;
  while (f < f1) {
    const std::size_t row_end = std::min(f1, (i + 1) * cols);
    std::size_t j = f - i * cols;
    const std::size_t* begin = col_idx.data() + row_ptr[i];
    const std::size_t* end = col_idx.data() + row_ptr[i + 1];
    std::size_t p =
        row_ptr[i] + (std::lower_bound(begin, end, j) - begin);
    for (; f < row_end; ++f, ++j) {
      double av = 0.0;
      if (p < row_ptr[i + 1] && col_idx[p] == j) {
        av = values[p];
        ++p;
      }
      fn(f, av);
    }
    ++i;
  }
}

// ‖S − A‖²_F as a chunked sum of squares (partials combined in chunk
// order → deterministic for any thread count). S is dense, so the sweep
// is still O(n²); A is read through the flat cursor.
double LossValue(const Objective& objective, const Matrix& s) {
  const double* sd = s.data().data();
  return ParallelReduceSum(0, s.data().size(), GrainForWork(1),
                           [&](std::size_t i0, std::size_t i1) {
                             double sum = 0.0;
                             ForEachFlatWithA(objective.a, i0, i1,
                                              [&](std::size_t i, double av) {
                                                const double d = sd[i] - av;
                                                sum += d * d;
                                              });
                             return sum;
                           });
}

// Gradient of the loss alone, 2(S − A). Entries are computed
// independently, so only the per-entry expression must match the dense
// reference.
Matrix LossGradient(const Objective& objective, const Matrix& s) {
  Matrix g(s.rows(), s.cols());
  const double* sd = s.data().data();
  double* gd = g.data().data();
  ParallelFor(0, s.data().size(), GrainForWork(1),
              [&](std::size_t i0, std::size_t i1) {
                ForEachFlatWithA(objective.a, i0, i1,
                                 [&](std::size_t i, double av) {
                                   gd[i] = (sd[i] - av) * 2.0;
                                 });
              });
  return g;
}

}  // namespace

double SmoothValue(const Objective& objective, const Matrix& s) {
  const double* sd = s.data().data();
  const double* vd = objective.grad_v.data().data();
  const double inner =
      ParallelReduceSum(0, s.data().size(), GrainForWork(1),
                        [&](std::size_t i0, std::size_t i1) {
                          double sum = 0.0;
                          for (std::size_t i = i0; i < i1; ++i) {
                            sum += sd[i] * vd[i];
                          }
                          return sum;
                        });
  return LossValue(objective, s) - inner;
}

Matrix SmoothGradient(const Objective& objective, const Matrix& s) {
  Matrix g = LossGradient(objective, s);
  g -= objective.grad_v;
  return g;
}

double FullObjectiveValue(const Objective& objective, const Matrix& s,
                          const std::vector<Tensor3>& tensors,
                          const std::vector<double>& weights) {
  SLAMPRED_CHECK(tensors.size() == weights.size());
  double value = LossValue(objective, s);

  const std::size_t per_slice = s.rows() * s.cols();
  const double* sd = s.data().data();
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    if (weights[k] == 0.0 || tensors[k].empty()) continue;
    // Flat sweep over (slice, i, j); the matching S entry is the flat
    // index modulo the slice size. Chunk partials combine in order.
    const double* td = tensors[k].data().data();
    const double intimacy = ParallelReduceSum(
        0, tensors[k].dim0() * per_slice, GrainForWork(1),
        [&](std::size_t f0, std::size_t f1) {
          double sum = 0.0;
          for (std::size_t f = f0; f < f1; ++f) {
            sum += std::fabs(sd[f % per_slice] * td[f]);
          }
          return sum;
        });
    value -= weights[k] * intimacy;
  }

  value += objective.gamma * s.NormL1();
  if (objective.tau == 0.0) return value;  // +0.0 * sigma is an exact no-op.
  auto nuclear = NuclearNorm(s);
  if (!nuclear.ok()) {
    // A trace/diagnostic evaluation must not abort the solve. Retry the
    // SVD with a doubled sweep budget; if even that fails, report NaN so
    // callers can see the evaluation was unusable.
    SvdOptions retry;
    retry.max_sweeps *= 2;
    auto svd = ComputeSvd(s, retry);
    if (!svd.ok()) return std::numeric_limits<double>::quiet_NaN();
    double sum = 0.0;
    for (std::size_t r = 0; r < svd.value().singular_values.size(); ++r) {
      sum += svd.value().singular_values[r];
    }
    return value + objective.tau * sum;
  }
  value += objective.tau * nuclear.value();
  return value;
}

}  // namespace slampred
