// Deterministic fault injection for robustness testing.
//
// Production code marks interesting failure points with named sites:
//
//   switch (SLAMPRED_FAULT_HIT("svd.prox")) { ... }
//
// Tests arm a site with a FaultSpec (what to inject, after how many
// hits, how many times) through the process-wide FaultInjector. The
// counting is fully deterministic — no randomness, no time — so a test
// that arms "fb.grad_step" to poison the 3rd hit always poisons exactly
// the 3rd gradient step.
//
// Kinds: the poison kinds ask the caller to corrupt its numeric state,
// the fail kinds to return the matching Status. kStall parks a thread
// at a known point for tests: the triggering hit blocks inside Hit()
// until the test disarms or re-arms the site (or resets the injector),
// then injects nothing.
//
// When the library is configured with SLAMPRED_FAULT_INJECTION=OFF the
// macro compiles to the constant kNone and the whole mechanism
// disappears from the binary. When compiled in but nothing is armed,
// each hit costs one relaxed atomic load.
//
// Callers with no numeric state to corrupt map a hit to a Status with
// InjectedFaultStatus; the solver sites map theirs through the helpers
// of optim/guardrails.h.
//
// Known injection sites wired into the library:
//   "svd.prox"        primary nuclear-norm prox of both solver backends
//                     (cccp.cc, factored_solver.cc; the fallback chain
//                     in guardrails.cc skips it)
//   "prox.factored"   factored-backend prox only (factored_solver.cc);
//                     "svd.prox" also covers it, this site singles the
//                     factored path out
//   "fb.grad_step"    forward–backward half step of both solver
//                     backends (ApplyGradStepFault, guardrails.cc)
//   "graph_io.parse"  per-line network/anchor parsing (graph_io.cc)
//   "fit.features"    feature stage of the fit pipeline (fit_pipeline.cc)
//   "fit.embedding"   embedding stage of the fit pipeline (fit_pipeline.cc)
//   "fit.solve"       solve stage of the fit pipeline (fit_pipeline.cc)
//   "artifact.read"   model artifact loading (model_artifact.cc)
//   "serve.swap"      model hot-swap validation (serve/model_registry.cc)
//   "serve.batch"     batch dispatch of the scoring service
//                     (serve/batch_scorer.cc); kStall there holds a
//                     dispatch in flight, so later requests queue
//                     behind it

#ifndef SLAMPRED_UTIL_FAULT_INJECTION_H_
#define SLAMPRED_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace slampred {

/// What an armed site injects when it triggers.
enum class FaultKind : int {
  kNone = 0,           ///< No fault at this hit.
  kPoisonNaN,          ///< Caller should poison its state with NaN.
  kPoisonInf,          ///< Caller should poison its state with +Inf.
  kFailNotConverged,   ///< Caller should fail with kNotConverged.
  kFailNumerical,      ///< Caller should fail with kNumericalError.
  kFailIo,             ///< Caller should fail with kIoError.
  kStall,              ///< Hit blocks until the site is disarmed, re-armed
                       ///< or the injector reset, then returns kNone.
};

/// Returns a stable name for a fault kind (for logs and test messages).
const char* FaultKindToString(FaultKind kind);

/// Hits `site` and maps what it injects to a Status: kFailIo to
/// kIoError; kFailNumerical and both poison kinds (which have no
/// numeric state to corrupt here) to kNumericalError; kFailNotConverged
/// to kNotConverged; kNone and kStall to OK. The message is `prefix`
/// followed by "injected <io|numerical|not-converged> fault".
Status InjectedFaultStatus(const std::string& site, std::string_view prefix);

/// How an armed site behaves over successive hits.
struct FaultSpec {
  FaultKind kind = FaultKind::kPoisonNaN;
  /// Number of hits to let pass before the first trigger (0 = trigger on
  /// the very first hit).
  int trigger_after = 0;
  /// Maximum number of triggers; < 0 means trigger on every eligible hit.
  int max_triggers = 1;
  /// Periodic trigger cadence over the *eligible* hits (those past
  /// trigger_after): <= 1 fires on every eligible hit (the historical
  /// behavior); N > 1 fires on the Nth, 2Nth, 3Nth, ... eligible hit.
  /// Composes with trigger_after (shifts the eligible window) and
  /// max_triggers (caps total firings), so a chaos run can inject a
  /// sustained low-rate fault stream instead of one solid window.
  int every_n = 0;
};

/// Process-wide deterministic fault injector. Thread-safe; intended to
/// be armed from tests only.
class FaultInjector {
 public:
  /// The process-wide instance.
  static FaultInjector& Instance();

  /// Arms (or re-arms) `site` with `spec`, resetting its counters.
  /// Releases hits stalled by the site's previous arming.
  void Arm(const std::string& site, FaultSpec spec);

  /// Disarms `site`, releasing its stalled hits; its counters survive
  /// for inspection until Reset.
  void Disarm(const std::string& site);

  /// Disarms every site, releases every stalled hit and clears all
  /// counters.
  void Reset();

  /// Records a hit at `site` and returns the fault to inject now
  /// (kNone when the site is unarmed or outside its trigger window). A
  /// triggered kStall counts as a trigger, blocks until its arming ends
  /// and returns kNone.
  FaultKind Hit(const std::string& site);

  /// Total hits recorded at `site` since it was last armed/reset.
  int HitCount(const std::string& site) const;

  /// Number of faults actually injected at `site`.
  int TriggerCount(const std::string& site) const;

 private:
  FaultInjector() = default;

  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    int hits = 0;
    int triggers = 0;
    std::uint64_t arming = 0;  // Which Arm call armed it (see armings_).
  };

  mutable std::mutex mu_;
  // Notified by Arm, Disarm and Reset, which end a stall's arming.
  std::condition_variable stall_released_;
  std::uint64_t armings_ = 0;  // Arm calls so far; guarded by mu_.
  std::unordered_map<std::string, SiteState> sites_;
  // Fast-path gate: number of currently armed sites. Checked without the
  // lock so unarmed hot loops pay one relaxed load per hit.
  std::atomic<int> armed_sites_{0};
};

}  // namespace slampred

#if defined(SLAMPRED_FAULT_INJECTION_ENABLED) && SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_FAULT_HIT(site) \
  (::slampred::FaultInjector::Instance().Hit(site))
#else
#define SLAMPRED_FAULT_HIT(site) (::slampred::FaultKind::kNone)
#endif

#endif  // SLAMPRED_UTIL_FAULT_INJECTION_H_
