// Solver guardrails: the one recovery policy of Algorithm 1, written
// once over the iterate type and shared by the dense (Matrix) and the
// factored (FactoredMatrix) backends. A backend supplies only its
// forward–backward step (ForwardBackwardStep); the loops here own
// every decision about it:
//
//   * NaN/Inf after the half step or after the backward steps → roll
//     back to the last good iterate and multiply θ by backoff_factor.
//   * Divergence (the step change blowing up well past its best value
//     for several consecutive steps)      → same rollback + backoff.
//   * Nuclear-prox failure (kNotConverged / kNumericalError or a
//     non-finite result)                  → bounded-retry fallback on
//     the full Jacobi SVD with a doubled sweep budget (GuardedProx);
//     past the fallbacks, a rollback.
//   * Recovery budget spent               → the inner loop fails with
//     kNotConverged, and CCCP resumes from its last good iterate with a
//     backed-off θ a bounded number of times.
//
// The guardrails are observers on the healthy path: with no fault and
// no divergence they only read the iterate, so traces are bit-identical
// to an unguarded run. Every intervention is counted in RecoveryStats,
// surfaced through CccpTrace and printed by tools/slampred_cli.
//
// Fault sites (util/fault_injection.h): "fb.grad_step" poisons a
// backend's half step through ApplyGradStepFault; "svd.prox" (both
// backends) and "prox.factored" (factored only) fail or poison the
// primary nuclear-prox attempt through HitProxFaultSite.

#ifndef SLAMPRED_OPTIM_GUARDRAILS_H_
#define SLAMPRED_OPTIM_GUARDRAILS_H_

#include <functional>
#include <string>

#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace slampred {

struct ForwardBackwardOptions;
struct IterationTrace;
struct CccpOptions;
struct CccpTrace;

/// Counters for every recovery action the solver took. All zero on a
/// fault-free, well-conditioned run.
struct RecoveryStats {
  int nan_rollbacks = 0;       ///< Non-finite iterate → rollback.
  int prox_rollbacks = 0;      ///< Unrecoverable prox failure → rollback.
  int divergence_backoffs = 0; ///< Diverging change → rollback + θ/2.
  int svd_fallbacks = 0;       ///< Nuclear prox retried on Jacobi SVD.
  int checkpoint_resumes = 0;  ///< Failed CCCP round or cluster retried.
  int swap_failures = 0;       ///< Rejected model hot-swaps (serving).
  int batch_failures = 0;      ///< Failed batch dispatches (serving).
  int shed = 0;                ///< Requests rejected by admission control.
  int deadline_exceeded = 0;   ///< Requests shed past their deadline.
  int breaker_trips = 0;       ///< Circuit-breaker closed→open transitions.
  int degraded_responses = 0;  ///< Responses served off the full path.
  int artifact_rollbacks = 0;  ///< Swaps recovered via a last_good sidecar.

  /// Total number of recoveries of any kind.
  int Total() const {
    return nan_rollbacks + prox_rollbacks + divergence_backoffs +
           svd_fallbacks + checkpoint_resumes + swap_failures +
           batch_failures + shed + deadline_exceeded + breaker_trips +
           degraded_responses + artifact_rollbacks;
  }

  /// Adds another stats object into this one.
  void Merge(const RecoveryStats& other) {
    nan_rollbacks += other.nan_rollbacks;
    prox_rollbacks += other.prox_rollbacks;
    divergence_backoffs += other.divergence_backoffs;
    svd_fallbacks += other.svd_fallbacks;
    checkpoint_resumes += other.checkpoint_resumes;
    swap_failures += other.swap_failures;
    batch_failures += other.batch_failures;
    shed += other.shed;
    deadline_exceeded += other.deadline_exceeded;
    breaker_trips += other.breaker_trips;
    degraded_responses += other.degraded_responses;
    artifact_rollbacks += other.artifact_rollbacks;
  }

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Guardrail controls shared by the inner and outer loops.
struct GuardrailOptions {
  /// Master switch. Off restores the exact pre-guardrail behavior
  /// (aborts on nothing, but propagates any prox failure immediately).
  bool enabled = true;
  /// Multiplier applied to θ at each backoff (0 < factor < 1).
  double backoff_factor = 0.5;
  /// Maximum rollback/backoff recoveries per inner-loop run before the
  /// loop gives up and returns its last good iterate.
  int max_recoveries = 8;
  /// Divergence test: the change ‖ΔS‖ must exceed
  /// divergence_factor × (best change seen) for divergence_window
  /// consecutive steps. The defaults are far outside anything a healthy
  /// run produces, so the healthy path is untouched.
  double divergence_factor = 1e3;
  int divergence_window = 3;
  /// Bounded retries of the full-Jacobi nuclear-prox fallback; each
  /// retry doubles the sweep budget.
  int max_svd_fallbacks = 2;
  /// Maximum restarts of a failed CCCP round from the last good
  /// iterate.
  int max_checkpoint_resumes = 2;
};

/// True iff every entry of `m` is finite (no NaN, no ±Inf).
bool MatrixIsFinite(const Matrix& m);

/// The "fb.grad_step" site: poisons the first entry of a backend's half
/// step with +Inf (kPoisonInf) or NaN (every other injected kind — from
/// the solver's point of view a failed gradient step *is* a corrupted
/// iterate).
void ApplyGradStepFault(Matrix* half_step);

/// Hits nuclear-prox fault site `site`. A fail kind returns its Status
/// (kNotConverged, or kNumericalError for the numerical and I/O kinds);
/// any other kind returns OK and is left in `*kind`, where a poison kind
/// asks the caller to corrupt its result with PoisonFirstEntry.
Status HitProxFaultSite(const char* site, FaultKind* kind);

/// Writes NaN (kPoisonNaN) or +Inf (kPoisonInf) into the first entry of
/// a non-empty `m`; every other kind leaves it untouched.
void PoisonFirstEntry(FaultKind kind, Matrix* m);

/// The nuclear-prox fallback chain of both backends. `attempt(nullptr)`
/// is the backend's primary prox; when it fails with kNotConverged /
/// kNumericalError or returns a non-finite iterate (and guardrails are
/// on), `attempt(&svd_options)` retries on the full Jacobi SVD with the
/// sweep budget doubled per retry, up to max_svd_fallbacks times. A
/// recovered prox counts one RecoveryStats::svd_fallbacks (`stats` may
/// be null). Instantiated for Matrix and FactoredMatrix.
template <typename Iterate>
Result<Iterate> GuardedProx(
    const std::function<Result<Iterate>(const SvdOptions*)>& attempt,
    const GuardrailOptions& guardrails, RecoveryStats* stats);

/// One backend's forward–backward step on iterate type `Iterate`. The
/// step only computes; the loops below decide what happens to it.
template <typename Iterate>
class ForwardBackwardStep {
 public:
  /// Called before CCCP outer round `round` starts.
  virtual void BeginRound(int /*round*/) {}
  /// Forward (gradient) half step from `s` with step size `theta`;
  /// `step` counts the inner loop's steps, rolled-back ones included.
  virtual void Forward(const Iterate& s, double theta, int step) = 0;
  /// True iff the last half step is finite.
  virtual bool HalfStepFinite() const = 0;
  /// Backward steps on the last half step: the guarded nuclear prox
  /// (GuardedProx), then the backend's remaining maps. Fails only when
  /// the nuclear prox fails past its fallback chain.
  virtual Result<Iterate> Backward(double theta,
                                   const GuardrailOptions& guardrails,
                                   RecoveryStats* recovery) = 0;
  /// Called with every accepted iterate.
  virtual void Accept(const Iterate& /*s*/) {}
};

/// The guarded inner loop: runs `step` from `s0` under the options'
/// θ, iteration cap and tolerance (‖ΔS‖/max(1,‖S‖) < tol, entry-wise
/// ℓ₁ norms for a Matrix iterate, Frobenius norms for a FactoredMatrix)
/// and appends accepted iterates to `trace` (when non-null); recovery
/// actions are counted into `recovery` (when non-null). Fails with
/// kNotConverged when the recovery budget is exhausted, or propagates a
/// prox failure directly when guardrails are disabled. Instantiated for
/// Matrix and FactoredMatrix.
template <typename Iterate>
Result<Iterate> GuardedForwardBackward(ForwardBackwardStep<Iterate>& step,
                                       const Iterate& s0,
                                       const ForwardBackwardOptions& options,
                                       IterationTrace* trace,
                                       RecoveryStats* recovery);

/// The guarded CCCP outer loop: up to options.max_outer_iterations
/// rounds of GuardedForwardBackward from `s` at step size
/// options.inner.theta. A failed round (kNotConverged /
/// kNumericalError) restarts from the last good iterate with a
/// backed-off θ up to max_checkpoint_resumes times; a clean round
/// restores options.inner.theta. Fills every CccpTrace field.
/// Instantiated for Matrix and FactoredMatrix.
template <typename Iterate>
Result<Iterate> GuardedCccp(ForwardBackwardStep<Iterate>& step, Iterate s,
                            const CccpOptions& options, CccpTrace* trace);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_GUARDRAILS_H_
