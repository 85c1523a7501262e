#include "optim/factored_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/matrix_ops.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// The half-step operator T = su·(U·Vᵀ) + sz·Z + oc·(1·1ᵀ), applied to
// dense blocks without materialising any n×n matrix. `s` may be null
// (no low-rank term); `z` is the sparse part.
struct HalfStepOp {
  const FactoredMatrix* s = nullptr;
  double su = 0.0;
  const CsrMatrix* z = nullptr;
  double sz = 0.0;
  double oc = 0.0;  // Coefficient of the rank-1 all-ones term.
  std::size_t n = 0;

  Matrix Apply(const Matrix& x, bool transpose) const {
    Matrix out(n, x.cols());
    if (z != nullptr && sz != 0.0) {
      out = transpose ? z->MultiplyTransposeDense(x) : z->MultiplyDense(x);
      out *= sz;
    }
    if (s != nullptr && su != 0.0 && s->rank() > 0) {
      Matrix low = transpose ? s->MultiplyTransposeDense(x)
                             : s->MultiplyDense(x);
      low *= su;
      out += low;
    }
    if (oc != 0.0) {
      // (1·1ᵀ)·x adds oc·(column sum of x) to every row — 1·1ᵀ is
      // symmetric, so the transpose case is identical.
      const std::size_t k = x.cols();
      Vector col_sum(k, 0.0);
      for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t j = 0; j < k; ++j) col_sum[j] += x(i, j);
      }
      ParallelFor(0, n, GrainForWork(k),
                  [&](std::size_t row0, std::size_t row1) {
                    for (std::size_t i = row0; i < row1; ++i) {
                      for (std::size_t j = 0; j < k; ++j) {
                        out(i, j) += oc * col_sum[j];
                      }
                    }
                  });
    }
    return out;
  }
};

// Randomized range finder for the half-step operator. `basis` (possibly
// empty) seeds the sketch with the previous step's subspace; fresh
// gaussian columns top it up to `sketch` columns. Returns Q with
// orthonormal columns spanning (approximately) range(T).
Matrix RangeFinder(const HalfStepOp& op, std::size_t sketch,
                   const Matrix& basis, int power_iterations,
                   std::uint64_t seed) {
  const std::size_t warm = std::min(basis.cols(), sketch);
  Matrix omega(op.n, sketch);
  if (warm > 0) omega.SetBlock(0, 0, basis.Block(0, 0, op.n, warm));
  if (warm < sketch) {
    Rng rng(seed);
    omega.SetBlock(0, warm,
                   Matrix::RandomGaussian(op.n, sketch - warm, rng));
  }
  Matrix q = OrthonormalizeColumns(op.Apply(omega, /*transpose=*/false));
  for (int it = 0; it < power_iterations && q.cols() > 0; ++it) {
    Matrix z = OrthonormalizeColumns(op.Apply(q, /*transpose=*/true));
    q = OrthonormalizeColumns(op.Apply(z, /*transpose=*/false));
  }
  return q;
}

// Mirrors forward_backward.cc: a failed gradient step *is* a corrupted
// iterate, so the "fb.grad_step" site poisons the materialised
// half-step factor.
void ApplyGradStepFault(Matrix* b) {
  switch (SLAMPRED_FAULT_HIT("fb.grad_step")) {
    case FaultKind::kNone:
    case FaultKind::kStall:
      break;
    case FaultKind::kPoisonInf:
      if (!b->empty()) b->data()[0] = std::numeric_limits<double>::infinity();
      break;
    case FaultKind::kPoisonNaN:
    case FaultKind::kFailNotConverged:
    case FaultKind::kFailNumerical:
    case FaultKind::kFailIo:
      if (!b->empty()) b->data()[0] = std::numeric_limits<double>::quiet_NaN();
      break;
  }
}

// One un-guarded factored prox attempt with the given core-SVD budget.
Result<FactoredMatrix> FactoredProxAttempt(const Matrix& q, const Matrix& b,
                                           double threshold,
                                           const SvdOptions& svd_options) {
  const std::size_t n_rows = q.rows();
  const std::size_t n_cols = b.rows();
  if (q.cols() == 0) return FactoredMatrix::Zero(n_rows, n_cols);
  auto qr_b = ComputeQr(b);
  if (!qr_b.ok()) return qr_b.status();
  // S_half = q·bᵀ = q·R_bᵀ·Q_bᵀ; the k×k core R_bᵀ carries the spectrum.
  auto core = ComputeSvd(qr_b.value().r.Transposed(), svd_options);
  if (!core.ok()) return core.status();
  const SvdResult& dec = core.value();

  std::size_t keep = 0;
  std::vector<double> shrunk(dec.singular_values.size(), 0.0);
  for (std::size_t r = 0; r < dec.singular_values.size(); ++r) {
    shrunk[r] = dec.singular_values[r] - threshold;
    if (shrunk[r] <= 0.0) break;
    ++keep;
  }
  if (keep == 0) return FactoredMatrix::Zero(n_rows, n_cols);

  // U = q·u_keep·diag(shrunk) and V = Q_b·v_keep; both products touch
  // only k-column small matrices before the final tall GEMMs.
  const std::size_t k = dec.u.rows();
  Matrix u_scaled(k, keep);
  Matrix v_keep(dec.v.rows(), keep);
  for (std::size_t r = 0; r < keep; ++r) {
    for (std::size_t i = 0; i < k; ++i) u_scaled(i, r) = dec.u(i, r) * shrunk[r];
    for (std::size_t i = 0; i < dec.v.rows(); ++i) v_keep(i, r) = dec.v(i, r);
  }
  return FactoredMatrix(q * u_scaled, qr_b.value().q * v_keep);
}

// Translates a fault kind at a prox site into the prox's behaviour.
// Returns true when the fault was handled and `*result` is the answer.
bool HandleProxFault(FaultKind kind, const char* site, const Matrix& q,
                     const Matrix& b, Result<FactoredMatrix>* result) {
  switch (kind) {
    case FaultKind::kNone:
    case FaultKind::kStall:
      return false;
    case FaultKind::kFailNotConverged:
      *result = Status::NotConverged(std::string("injected fault at ") + site);
      return true;
    case FaultKind::kFailNumerical:
    case FaultKind::kFailIo:
      *result = Status::NumericalError(std::string("injected fault at ") + site);
      return true;
    case FaultKind::kPoisonNaN:
    case FaultKind::kPoisonInf: {
      Matrix poisoned_u = q;
      if (!poisoned_u.empty()) {
        poisoned_u.data()[0] = kind == FaultKind::kPoisonInf
                                   ? std::numeric_limits<double>::infinity()
                                   : std::numeric_limits<double>::quiet_NaN();
      }
      *result = FactoredMatrix(std::move(poisoned_u), b);
      return true;
    }
  }
  return false;
}

}  // namespace

CsrMatrix BuildIntimacyGradientCsr(const std::vector<SparseTensor3>& tensors,
                                   const std::vector<double>& weights,
                                   std::size_t n) {
  SLAMPRED_CHECK(tensors.size() == weights.size())
      << "one weight per tensor required";
  CsrMatrix g = CsrMatrix::FromTriplets(n, n, {});
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    if (weights[k] == 0.0 || tensors[k].empty()) continue;
    SLAMPRED_CHECK(tensors[k].dim1() == n && tensors[k].dim2() == n)
        << "tensor " << k << " shape mismatch";
    // Sum the slices first, then scale once — the same per-entry
    // expression g + w·(Σ_c x_c) as the dense builder, so stored
    // entries match it bit for bit.
    CsrMatrix sum = tensors[k].SliceCsr(0);
    for (std::size_t c = 1; c < tensors[k].dim0(); ++c) {
      sum = sum.Add(tensors[k].SliceCsr(c));
    }
    g = g.AddScaled(sum, weights[k]);
  }
  return g;
}

double FactoredObjectiveValue(const FactoredObjective& objective,
                              const FactoredMatrix& s,
                              const std::vector<SparseTensor3>& tensors,
                              const std::vector<double>& weights) {
  SLAMPRED_CHECK(tensors.size() == weights.size());
  SLAMPRED_CHECK(objective.loss == LossKind::kSquaredFrobenius)
      << "factored objective evaluation needs the squared-Frobenius loss";
  // ‖S − A‖²_F = ‖S‖²_F − 2⟨S, A⟩ + ‖A‖²_F; every term is O(n·r²) or
  // O(nnz·r), never O(n²).
  const double af = objective.a.NormFrobenius();
  double value =
      InnerProduct(s, s) - 2.0 * s.InnerProductCsr(objective.a) + af * af;

  const std::size_t r = s.rank();
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    if (weights[k] == 0.0 || tensors[k].empty()) continue;
    double intimacy = 0.0;
    for (std::size_t c = 0; c < tensors[k].dim0(); ++c) {
      const CsrMatrix& slice = tensors[k].SliceCsr(c);
      const auto& row_ptr = slice.row_ptr();
      const auto& col_idx = slice.col_idx();
      const auto& values = slice.values();
      const std::size_t rows = slice.rows();
      const std::size_t avg_nnz =
          std::max<std::size_t>(1, slice.nnz() / std::max<std::size_t>(1, rows));
      intimacy += ParallelReduceSum(
          0, rows, GrainForWork(avg_nnz * std::max<std::size_t>(1, r)),
          [&](std::size_t row0, std::size_t row1) {
            double sum = 0.0;
            for (std::size_t i = row0; i < row1; ++i) {
              for (std::size_t idx = row_ptr[i]; idx < row_ptr[i + 1]; ++idx) {
                sum += std::fabs(s.At(i, col_idx[idx]) * values[idx]);
              }
            }
            return sum;
          });
    }
    value -= weights[k] * intimacy;
  }

  if (objective.gamma != 0.0) value += objective.gamma * s.NormL1();
  if (objective.tau == 0.0) return value;
  auto spectrum = s.SingularValues();
  if (!spectrum.ok()) return std::numeric_limits<double>::quiet_NaN();
  double nuclear = 0.0;
  for (std::size_t i = 0; i < spectrum.value().size(); ++i) {
    nuclear += spectrum.value()[i];
  }
  return value + objective.tau * nuclear;
}

Result<FactoredMatrix> GuardedFactoredProxNuclear(
    const Matrix& q, const Matrix& b, double threshold,
    const GuardrailOptions& guardrails, RecoveryStats* stats) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("negative nuclear threshold");
  }
  // Shares "svd.prox" with every dense prox backend — the guardrail
  // fallback chain must see the same fault regardless of backend — and
  // adds the factored-specific "prox.factored" site. An injected fault
  // replaces the primary attempt (failed Status or poisoned factors) so
  // the fallback chain below recovers it exactly like a real SVD
  // failure, mirroring the dense GuardedProxNuclear semantics.
  Result<FactoredMatrix> primary = Status::OK();
  bool injected = HandleProxFault(SLAMPRED_FAULT_HIT("svd.prox"), "svd.prox",
                                  q, b, &primary);
  if (!injected) {
    injected = HandleProxFault(SLAMPRED_FAULT_HIT("prox.factored"),
                               "prox.factored", q, b, &primary);
  }
  if (!injected) primary = FactoredProxAttempt(q, b, threshold, SvdOptions{});
  if (primary.ok() && primary.value().IsFinite()) return primary;
  if (!guardrails.enabled) return primary;
  if (!primary.ok() &&
      primary.status().code() != StatusCode::kNotConverged &&
      primary.status().code() != StatusCode::kNumericalError) {
    return primary;
  }

  Status last = primary.ok() ? Status::NumericalError(
                                   "factored prox produced non-finite factors")
                             : primary.status();
  // Same fallback policy as GuardedProxNuclear: bounded retries with a
  // doubled core-SVD sweep budget each attempt.
  SvdOptions svd_options;
  for (int attempt = 0; attempt < guardrails.max_svd_fallbacks; ++attempt) {
    svd_options.max_sweeps *= 2;
    auto fallback = FactoredProxAttempt(q, b, threshold, svd_options);
    if (fallback.ok() && fallback.value().IsFinite()) {
      if (stats != nullptr) ++stats->svd_fallbacks;
      return fallback;
    }
    last = fallback.ok()
               ? Status::NumericalError("fallback factored prox non-finite")
               : fallback.status();
  }
  return last;
}

Result<FactoredMatrix> FactoredApproximation(
    const CsrMatrix& a, const FactoredSolverOptions& options) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("factored approximation of empty matrix");
  }
  if (options.rank == 0) return Status::InvalidArgument("rank must be positive");
  HalfStepOp op;
  op.z = &a;
  op.sz = 1.0;
  op.n = a.rows();
  const std::size_t sketch = std::min(options.rank + options.oversampling,
                                      std::min(a.rows(), a.cols()));
  Matrix q = RangeFinder(op, sketch, Matrix(), options.power_iterations,
                         options.seed);
  if (q.cols() == 0) return FactoredMatrix::Zero(a.rows(), a.cols());
  // S⁰ = Q·(AᵀQ)ᵀ = Q·Qᵀ·A — the best approximation of A inside the
  // sketched subspace.
  return FactoredMatrix(std::move(q), a.MultiplyTransposeDense(q));
}

Result<FactoredMatrix> GeneralizedForwardBackwardFactored(
    const FactoredObjective& objective, const FactoredMatrix& s0,
    const ForwardBackwardOptions& options,
    const FactoredSolverOptions& factored, std::uint64_t sketch_seed,
    Matrix* warm_basis, IterationTrace* trace, RecoveryStats* recovery) {
  SLAMPRED_CHECK(s0.rows() == objective.a.rows() &&
                 s0.cols() == objective.a.cols())
      << "initial point shape mismatch";
  if (objective.loss != LossKind::kSquaredFrobenius) {
    return Status::InvalidArgument(
        "the factored backend supports the squared-Frobenius loss only "
        "(the squared-hinge gradient is entry-wise nonlinear)");
  }

  const GuardrailOptions& guard = options.guardrails;
  const std::size_t n = objective.a.rows();
  const std::size_t sketch =
      std::min(factored.rank + factored.oversampling, n);
  // Z = 2A + G is constant across the whole inner loop.
  const CsrMatrix z = objective.a.Scaled(2.0).Add(objective.grad_v);

  FactoredMatrix s = s0;
  double theta = options.theta;
  int recoveries = 0;
  double best_change = std::numeric_limits<double>::infinity();
  FactoredMatrix best_s = s;
  int divergence_streak = 0;
  bool budget_exhausted = false;
  Matrix basis = warm_basis != nullptr ? *warm_basis : Matrix();

  const auto back_off = [&](int* counter) {
    ++recoveries;
    if (counter != nullptr) ++*counter;
    theta *= guard.backoff_factor;
    return recoveries <= guard.max_recoveries;
  };

  bool converged = false;
  int it = 0;
  for (; it < options.max_iterations && !converged; ++it) {
    const FactoredMatrix prev = s;

    // Forward step as an implicit operator: S_half = (1−2θ)·S + θ·Z,
    // minus the linearised ℓ₁ term −θγ·1·1ᵀ when γ > 0.
    HalfStepOp op;
    op.s = &s;
    op.su = 1.0 - 2.0 * theta;
    op.z = &z;
    op.sz = theta;
    op.oc = objective.gamma > 0.0 ? -theta * objective.gamma : 0.0;
    op.n = n;

    const int power = basis.cols() > 0 ? factored.warm_power_iterations
                                       : factored.power_iterations;
    // Vary the fresh-column draw deterministically per step so a
    // dropped subspace direction is not re-proposed forever.
    const std::uint64_t step_seed =
        factored.seed ^ (sketch_seed + 0x9e3779b97f4a7c15ULL *
                                           static_cast<std::uint64_t>(it + 1));
    Matrix q = RangeFinder(op, sketch, basis, power, step_seed);
    Matrix b = op.Apply(q, /*transpose=*/true);
    ApplyGradStepFault(&b);

    // Guardrail: a non-finite half step never reaches the prox.
    const auto half_finite = [&] {
      for (double x : q.data()) {
        if (!std::isfinite(x)) return false;
      }
      for (double x : b.data()) {
        if (!std::isfinite(x)) return false;
      }
      return true;
    };
    if (guard.enabled && !half_finite()) {
      s = prev;
      if (!back_off(recovery != nullptr ? &recovery->nan_rollbacks
                                        : nullptr)) {
        budget_exhausted = true;
        break;
      }
      continue;
    }

    if (objective.tau > 0.0) {
      auto prox = GuardedFactoredProxNuclear(q, b, theta * objective.tau,
                                             guard, recovery);
      if (!prox.ok()) {
        if (!guard.enabled) return prox.status();
        s = prev;
        if (!back_off(recovery != nullptr ? &recovery->prox_rollbacks
                                          : nullptr)) {
          budget_exhausted = true;
          break;
        }
        continue;
      }
      s = std::move(prox).value();
    } else {
      // No nuclear term: the sketched half step is the new iterate.
      s = FactoredMatrix(std::move(q), std::move(b));
    }

    if (options.keep_symmetric && s.rows() == s.cols()) {
      s = s.Symmetrized();
    }

    if (guard.enabled && !s.IsFinite()) {
      s = prev;
      if (!back_off(recovery != nullptr ? &recovery->nan_rollbacks
                                        : nullptr)) {
        budget_exhausted = true;
        break;
      }
      continue;
    }

    const double change = s.DistanceFrobenius(prev);
    const double scale = std::max(1.0, s.FrobeniusNorm());

    if (guard.enabled) {
      if (change < best_change) {
        best_change = change;
        best_s = s;
        divergence_streak = 0;
      } else if (change >
                 guard.divergence_factor * std::max(best_change, 1e-12)) {
        if (++divergence_streak >= guard.divergence_window) {
          s = best_s;
          divergence_streak = 0;
          if (!back_off(recovery != nullptr
                            ? &recovery->divergence_backoffs
                            : nullptr)) {
            budget_exhausted = true;
            break;
          }
          continue;
        }
      }
    }

    converged = change / scale < options.tol;

    // Subspace reuse: the accepted iterate's column space seeds the
    // next range find.
    basis = s.u();

    if (trace != nullptr) {
      trace->s_norm_l1.push_back(s.FrobeniusNorm());
      trace->s_change_l1.push_back(change);
    }
  }

  if (trace != nullptr) {
    trace->converged = converged;
    trace->iterations += it;
  }
  if (warm_basis != nullptr) *warm_basis = std::move(basis);
  if (budget_exhausted) {
    return Status::NotConverged(
        "factored forward-backward recovery budget exhausted after " +
        std::to_string(recoveries) + " recoveries");
  }
  return s;
}

Result<FactoredMatrix> SolveCccpFactored(const FactoredObjective& objective,
                                         const CccpOptions& options,
                                         const FactoredSolverOptions& factored,
                                         CccpTrace* trace) {
  if (objective.loss != LossKind::kSquaredFrobenius) {
    return Status::InvalidArgument(
        "the factored backend supports the squared-Frobenius loss only "
        "(the squared-hinge gradient is entry-wise nonlinear)");
  }
  auto init = FactoredApproximation(objective.a, factored);
  if (!init.ok()) return init.status();

  const GuardrailOptions& guard = options.inner.guardrails;
  FactoredMatrix s = std::move(init).value();
  const double theta0 = options.inner.theta;
  double theta = theta0;
  RecoveryStats local_recovery;
  RecoveryStats* recovery =
      trace != nullptr ? &trace->recovery : &local_recovery;

  // The factored twin of the dense SolverCheckpoint; CccpTrace's dense
  // checkpoint stays invalid in this mode.
  FactoredMatrix checkpoint_s = s;
  Matrix warm_basis;

  int resumes = 0;
  bool converged = false;
  int outer = 0;
  while (outer < options.max_outer_iterations && !converged) {
    const FactoredMatrix prev = s;
    IterationTrace* inner_trace = trace != nullptr ? &trace->steps : nullptr;
    ForwardBackwardOptions inner_options = options.inner;
    inner_options.theta = theta;
    const std::uint64_t round_seed =
        0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(outer + 1);
    auto inner = GeneralizedForwardBackwardFactored(
        objective, s, inner_options, factored, round_seed, &warm_basis,
        inner_trace, recovery);
    if (!inner.ok()) {
      const StatusCode code = inner.status().code();
      if (guard.enabled && resumes < guard.max_checkpoint_resumes &&
          (code == StatusCode::kNotConverged ||
           code == StatusCode::kNumericalError)) {
        ++resumes;
        ++recovery->checkpoint_resumes;
        theta *= guard.backoff_factor;
        s = checkpoint_s;
        continue;
      }
      return inner.status();
    }
    s = std::move(inner).value();
    // Episodic backoff, exactly as the dense outer loop: a clean round
    // restores the configured step size.
    theta = theta0;

    const double change = s.DistanceFrobenius(prev);
    const double scale = std::max(1.0, s.FrobeniusNorm());
    converged = change / scale < options.outer_tol;
    if (trace != nullptr) trace->outer_change_l1.push_back(change);

    ++outer;
    checkpoint_s = s;
  }
  if (trace != nullptr) {
    trace->outer_iterations = outer;
    trace->converged = converged;
  }
  return s;
}

}  // namespace slampred
