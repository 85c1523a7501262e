// In-process load generator for the concurrent serving layer — the
// measurement half of `slampred_cli serve-bench`. Drives a
// ScoringService with a mixed Score/TopK workload from concurrent
// callers, optionally hot-swapping the model mid-run, and reports
// throughput plus p50/p95/p99 latency (emitted as BENCH_serve.json by
// the CLI).
//
// Closed loop: `concurrency` caller threads issue back-to-back requests
// until the deadline — measures peak sustainable throughput. Open loop:
// requests arrive on a fixed schedule (`open_rate_rps`) and `concurrency`
// connection threads issue them in arrival order; latency is measured
// from the *scheduled* arrival, so queueing delay under overload is
// visible instead of coordinated away.
//
// Overload and chaos features: per-request deadlines (`deadline_ms`),
// an error taxonomy broken down by status code, per-tier response
// counts, and a chaos mode that arms the serve.swap / serve.batch /
// artifact.read fault sites at a deterministic cadence for the run and
// verifies response invariants (every full-tier response bit-matches
// the served artifact) — the measurement half of
// `slampred_cli serve-bench --chaos`.

#ifndef SLAMPRED_SERVE_LOAD_GENERATOR_H_
#define SLAMPRED_SERVE_LOAD_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/scoring_service.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace slampred {

/// Workload shape for one load-generator run.
struct LoadGeneratorOptions {
  enum class Mode { kClosed, kOpen };

  Mode mode = Mode::kClosed;
  /// Caller threads (closed loop) or connections (open loop); at most
  /// kMaxThreads.
  std::size_t concurrency = 4;
  /// Wall-clock run length, in (0, kMaxParsedCount] seconds.
  double duration_seconds = 2.0;
  /// Arrival rate in requests/sec (open loop). A schedule of more than
  /// kMaxParsedCount arrivals (rate × duration) is rejected.
  double open_rate_rps = 2000.0;
  /// Pairs per ScorePairs request.
  std::size_t pairs_per_request = 64;
  /// Every Nth request is a TopK instead of a ScorePairs (0 = never).
  std::size_t topk_every = 4;
  /// k of the TopK requests.
  std::size_t top_k = 10;
  /// > 0: a swapper thread republishes the current artifact as a new
  /// version this often — the hot-swap-under-load scenario.
  double swap_every_seconds = 0.0;
  /// Seed of the deterministic per-thread request streams.
  std::uint64_t seed = 42;
  /// > 0: every request carries a deadline this many ms after issue; at
  /// most kMaxParsedCount.
  double deadline_ms = 0.0;
  /// Non-empty: the swapper republishes via SwapFromFile(swap_path)
  /// instead of an in-memory Swap, exercising the artifact.read site
  /// and last_good rollback. The file must hold the served artifact.
  std::string swap_path;
  /// Arms the serve.swap / serve.batch / artifact.read fault sites at a
  /// deterministic cadence for the duration of the run (disarmed again
  /// before returning) and turns `verify` on.
  bool chaos = false;
  /// Verifies every full-tier response against the initially published
  /// score matrix (valid because the swapper republishes the same
  /// artifact); mismatches are counted as invariant violations.
  bool verify = false;
};

/// Latency distribution over all completed requests.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Errors broken down by status code (sums to the report's `errors`).
struct LoadErrorBreakdown {
  std::size_t deadline_exceeded = 0;  ///< kDeadlineExceeded.
  std::size_t shed = 0;               ///< kResourceExhausted.
  std::size_t io = 0;                 ///< kIoError.
  std::size_t numerical = 0;          ///< kNumericalError.
  std::size_t unavailable = 0;        ///< kUnavailable.
  std::size_t other = 0;              ///< Everything else.
};

/// Successful responses broken down by the tier that answered them.
struct ServeTierCounts {
  std::size_t full = 0;
  std::size_t cached = 0;
  std::size_t degraded = 0;
};

/// Outcome of one run.
struct LoadGeneratorReport {
  std::string mode;
  std::size_t concurrency = 0;
  std::size_t requests = 0;
  std::size_t score_requests = 0;
  std::size_t topk_requests = 0;
  std::size_t errors = 0;
  LoadErrorBreakdown error_breakdown;
  ServeTierCounts tiers;
  /// Full-tier responses that failed verification (verify mode only;
  /// must stay 0 — the chaos CI leg asserts on it).
  std::size_t invariant_violations = 0;
  std::uint64_t swaps = 0;          ///< Successful mid-run hot-swaps.
  std::uint64_t final_version = 0;  ///< Registry version after the run.
  /// Quantized-serving accounting. `artifact_bytes` is the serialized
  /// size of the served artifact and `float_equiv_bytes` what the same
  /// model costs in float form (equal when serving float; filled by the
  /// CLI, which knows both files). `hot_rows` / `hot_hits` count the
  /// precomputed hot-user cache and the top-K responses it answered;
  /// `cache_hit_rate` is tiers.cached / topk_requests. `auc` is the
  /// sampled link-prediction AUC of the served scores against the
  /// observed graph (−1 when not computed).
  std::uint64_t artifact_bytes = 0;
  std::uint64_t float_equiv_bytes = 0;
  std::size_t hot_rows = 0;
  std::uint64_t hot_hits = 0;
  double cache_hit_rate = 0.0;
  double auc = -1.0;
  /// Registry recovery counters at the end of the run.
  RecoveryStats recovery;
  double duration_seconds = 0.0;
  double throughput_rps = 0.0;
  LatencySummary latency;

  /// One JSON object (the BENCH_serve.json payload).
  std::string ToJson() const;

  /// Human-readable multi-line summary.
  std::string ToString() const;
};

/// Runs the workload against `service`, swapping through `registry`
/// when configured. Requires a published model; fails fast otherwise,
/// and with kInvalidArgument before any request on a duration or
/// deadline past its bound, too many threads or an over-long open-loop
/// schedule.
Result<LoadGeneratorReport> RunLoadGenerator(
    ModelRegistry& registry, ScoringService& service,
    const LoadGeneratorOptions& options);

}  // namespace slampred

#endif  // SLAMPRED_SERVE_LOAD_GENERATOR_H_
