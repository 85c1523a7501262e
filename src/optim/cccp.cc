// The dense backend of Algorithm 1: the forward–backward step on a
// dense iterate, run by the shared guarded loops of optim/guardrails.h.

#include "optim/cccp.h"

#include <algorithm>
#include <utility>

#include "optim/proximal.h"
#include "util/logging.h"

namespace slampred {

namespace {

// The primary nuclear prox (symmetric-eigen or Jacobi dispatch behind
// the "svd.prox" site) with the shared fallback chain on the full
// Jacobi SVD.
Result<Matrix> GuardedProxNuclear(const Matrix& s, double threshold,
                                  const GuardrailOptions& guardrails,
                                  RecoveryStats* stats) {
  return GuardedProx<Matrix>(
      [&](const SvdOptions* fallback) -> Result<Matrix> {
        if (fallback != nullptr) return ProxNuclear(s, threshold, *fallback);
        FaultKind fault = FaultKind::kNone;
        SLAMPRED_RETURN_NOT_OK(HitProxFaultSite("svd.prox", &fault));
        auto out = ProxNuclearAuto(s, threshold);
        if (out.ok()) PoisonFirstEntry(fault, &out.value());
        return out;
      },
      guardrails, stats);
}

// S ← S − θ∇f(S), then prox_{θτ‖·‖_*}, prox_{θγ‖·‖₁}, the [0,1] box
// projection and re-symmetrisation.
class DenseStep final : public ForwardBackwardStep<Matrix> {
 public:
  DenseStep(const Objective& objective, const ForwardBackwardOptions& options)
      : objective_(objective), options_(options) {}

  void Forward(const Matrix& s, double theta, int /*step*/) override {
    half_ = s - SmoothGradient(objective_, s) * theta;
    ApplyGradStepFault(&half_);
  }

  bool HalfStepFinite() const override { return MatrixIsFinite(half_); }

  Result<Matrix> Backward(double theta, const GuardrailOptions& guardrails,
                          RecoveryStats* recovery) override {
    Matrix s = std::move(half_);
    if (objective_.tau > 0.0) {
      auto prox = GuardedProxNuclear(s, theta * objective_.tau, guardrails,
                                     recovery);
      if (!prox.ok()) return prox.status();
      s = std::move(prox).value();
    }
    if (objective_.gamma > 0.0) s = ProxL1(s, theta * objective_.gamma);
    if (options_.project_unit_box) {
      for (double& v : s.data()) v = std::clamp(v, 0.0, 1.0);
    }
    if (options_.keep_symmetric && s.IsSquare()) s = s.Symmetrized();
    return s;
  }

 private:
  const Objective& objective_;
  const ForwardBackwardOptions& options_;
  Matrix half_;
};

}  // namespace

Result<Matrix> GeneralizedForwardBackward(
    const Objective& objective, const Matrix& s0,
    const ForwardBackwardOptions& options, IterationTrace* trace,
    RecoveryStats* recovery) {
  SLAMPRED_CHECK(s0.rows() == objective.a.rows() &&
                 s0.cols() == objective.a.cols())
      << "initial point shape mismatch";
  DenseStep step(objective, options);
  return GuardedForwardBackward<Matrix>(step, s0, options, trace, recovery);
}

Result<Matrix> SolveCccp(const Objective& objective,
                         const CccpOptions& options, CccpTrace* trace) {
  // The iterate is dense; densify the CSR adjacency once for S⁰ = Aᵗ.
  DenseStep step(objective, options.inner);
  return GuardedCccp(step, objective.a.ToDense(), options, trace);
}

}  // namespace slampred
