#include "optim/factored_solver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "linalg/matrix_ops.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// Subspace (power) iterations of a cold-started range sketch, and of one
// warm-started from the previous step's basis: the subspace barely
// moves between iterations, so fewer passes suffice.
constexpr int kColdPowerIterations = 2;
constexpr int kWarmPowerIterations = 1;
// Base seed of the gaussian sketches; every per-step draw is derived
// from it, never from global state.
constexpr std::uint64_t kSketchSeed = 0x5eedULL;

// The half-step operator T = su·(U·Vᵀ) + sz·Z + oc·(1·1ᵀ), applied to
// dense blocks without materialising any n×n matrix. `s` may be null
// (no low-rank term); `z` is the sparse part, symmetric (2A + G, or A),
// so Zᵀ·x is computed as Z·x.
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
      out = z->MultiplyDense(x);
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

// The sketched half step S_half ≈ q·bᵀ of (1−2θ)·S + θ·Z (minus the
// linearised ℓ₁ term −θγ·1·1ᵀ when γ > 0), the factored prox and
// re-symmetrisation; every accepted iterate's column space seeds the
// next range find (subspace reuse, across CCCP rounds too).
class FactoredStep final : public ForwardBackwardStep<FactoredMatrix> {
 public:
  // `z` is HalfStepSparsePart(objective.a, objective.grad_v); the step
  // reads G only through it.
  FactoredStep(const FactoredObjective& objective, CsrMatrix z,
               const ForwardBackwardOptions& options,
               const FactoredSolverOptions& factored, Matrix basis)
      : objective_(objective),
        keep_symmetric_(options.keep_symmetric),
        sketch_(std::min(factored.rank + factored.oversampling,
                         objective.a.rows())),
        z_(std::move(z)),
        basis_(std::move(basis)) {}

  // Decorrelates the gaussian draws across CCCP rounds.
  void set_sketch_seed(std::uint64_t seed) { sketch_seed_ = seed; }
  void BeginRound(int round) override {
    sketch_seed_ =
        0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(round + 1);
  }

  void Forward(const FactoredMatrix& s, double theta, int step) override {
    HalfStepOp op;
    op.s = &s;
    op.su = 1.0 - 2.0 * theta;
    op.z = &z_;
    op.sz = theta;
    op.oc = objective_.gamma > 0.0 ? -theta * objective_.gamma : 0.0;
    op.n = objective_.a.rows();
    const int power =
        basis_.cols() > 0 ? kWarmPowerIterations : kColdPowerIterations;
    // Vary the fresh-column draw deterministically per step so a
    // dropped subspace direction is not re-proposed forever.
    const std::uint64_t step_seed =
        kSketchSeed ^ (sketch_seed_ + 0x9e3779b97f4a7c15ULL *
                                          static_cast<std::uint64_t>(step + 1));
    q_ = RangeFinder(op, sketch_, basis_, power, step_seed);
    b_ = op.Apply(q_, /*transpose=*/true);
    ApplyGradStepFault(&b_);
  }

  bool HalfStepFinite() const override {
    return MatrixIsFinite(q_) && MatrixIsFinite(b_);
  }

  Result<FactoredMatrix> Backward(double theta,
                                  const GuardrailOptions& guardrails,
                                  RecoveryStats* recovery) override {
    Matrix q = std::move(q_);
    Matrix b = std::move(b_);
    FactoredMatrix s;
    if (objective_.tau > 0.0) {
      auto prox = GuardedFactoredProxNuclear(q, b, theta * objective_.tau,
                                             guardrails, recovery);
      if (!prox.ok()) return prox.status();
      s = std::move(prox).value();
    } else {
      // No nuclear term: the sketched half step is the new iterate.
      s = FactoredMatrix(std::move(q), std::move(b));
    }
    if (keep_symmetric_ && s.rows() == s.cols()) s = s.Symmetrized();
    return s;
  }

  void Accept(const FactoredMatrix& s) override { basis_ = s.u(); }

  Matrix TakeBasis() { return std::move(basis_); }

 private:
  const FactoredObjective& objective_;
  const bool keep_symmetric_;
  const std::size_t sketch_;
  const CsrMatrix z_;  // Z = 2A + G, constant across the whole solve.
  Matrix basis_;
  std::uint64_t sketch_seed_ = 0;
  Matrix q_;
  Matrix b_;
};

}  // namespace

Result<FactoredMatrix> GuardedFactoredProxNuclear(
    const Matrix& q, const Matrix& b, double threshold,
    const GuardrailOptions& guardrails, RecoveryStats* stats) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("negative nuclear threshold");
  }
  return GuardedProx<FactoredMatrix>(
      [&](const SvdOptions* fallback) -> Result<FactoredMatrix> {
        if (fallback != nullptr) {
          return FactoredProxAttempt(q, b, threshold, *fallback);
        }
        // "svd.prox" is shared with the dense backend — the fallback
        // chain must see the same fault regardless of backend — and
        // "prox.factored" singles this backend out. An injected poison
        // replaces the attempt with poisoned factors.
        for (const char* site : {"svd.prox", "prox.factored"}) {
          FaultKind fault = FaultKind::kNone;
          SLAMPRED_RETURN_NOT_OK(HitProxFaultSite(site, &fault));
          if (fault == FaultKind::kPoisonNaN ||
              fault == FaultKind::kPoisonInf) {
            Matrix poisoned_u = q;
            PoisonFirstEntry(fault, &poisoned_u);
            return FactoredMatrix(std::move(poisoned_u), b);
          }
        }
        return FactoredProxAttempt(q, b, threshold, SvdOptions{});
      },
      guardrails, stats);
}

CsrMatrix HalfStepSparsePart(const CsrMatrix& a, CsrMatrix g) {
  // g + 2·a per shared entry: bit for bit 2·a + g, FP addition being
  // commutative. `g` is released when this returns.
  return g.AddScaled(a, 2.0);
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
  Matrix q =
      RangeFinder(op, sketch, Matrix(), kColdPowerIterations, kSketchSeed);
  if (q.cols() == 0) return FactoredMatrix::Zero(a.rows(), a.cols());
  // S⁰ = Q·(AᵀQ)ᵀ = Q·Qᵀ·A — the best approximation of A inside the
  // sketched subspace; A is symmetric, so AᵀQ = A·Q.
  return FactoredMatrix(std::move(q), a.MultiplyDense(q));
}

Result<FactoredMatrix> GeneralizedForwardBackwardFactored(
    const FactoredObjective& objective, const FactoredMatrix& s0,
    const ForwardBackwardOptions& options,
    const FactoredSolverOptions& factored, std::uint64_t sketch_seed,
    Matrix* warm_basis, IterationTrace* trace, RecoveryStats* recovery) {
  SLAMPRED_CHECK(s0.rows() == objective.a.rows() &&
                 s0.cols() == objective.a.cols())
      << "initial point shape mismatch";
  FactoredStep step(objective,
                    HalfStepSparsePart(objective.a, objective.grad_v), options,
                    factored, warm_basis != nullptr ? *warm_basis : Matrix());
  step.set_sketch_seed(sketch_seed);
  auto s = GuardedForwardBackward<FactoredMatrix>(step, s0, options, trace,
                                                  recovery);
  if (warm_basis != nullptr) *warm_basis = step.TakeBasis();
  return s;
}

Result<FactoredMatrix> SolveCccpFactored(FactoredObjective objective,
                                         const CccpOptions& options,
                                         const FactoredSolverOptions& factored,
                                         CccpTrace* trace) {
  auto init = FactoredApproximation(objective.a, factored);
  if (!init.ok()) return init.status();
  // G is consumed by the merge, so only Z lives through the solve.
  CsrMatrix z = HalfStepSparsePart(
      objective.a, std::exchange(objective.grad_v, CsrMatrix()));
  FactoredStep step(objective, std::move(z), options.inner, factored,
                    Matrix());
  return GuardedCccp(step, std::move(init).value(), options, trace);
}

}  // namespace slampred
