// ModelRegistry — shared-ownership registry of the artifact a serving
// process is currently answering from, with atomic hot-swap.
//
// Requests Acquire() an immutable ServableModel snapshot and score
// against it; Swap() validates a new artifact (full checksum + invariant
// re-verification via a serialize→parse round trip, plus the
// "serve.swap" fault site) and publishes it atomically. In-flight
// requests keep their snapshot alive through shared_ptr ownership, so an
// old version drains naturally: it is destroyed when its last in-flight
// request finishes, and no request ever observes a half-swapped model.
// A failed swap leaves the previous model serving untouched and is
// counted in RecoveryStats::swap_failures.
//
// The swap path is additionally guarded by a circuit breaker: after
// `breaker.failure_threshold` consecutive failed swaps the registry
// stops attempting swaps (fast kUnavailable, last-good model keeps
// serving) until the breaker's exponential backoff elapses and a
// half-open probe succeeds. SwapFromFile layers crash-safe recovery on
// top: a torn or corrupt file is retried with a doubling backoff, then
// rolled back to the `.last_good` sidecar WriteArtifactAtomic published
// alongside the primary (counted in RecoveryStats::artifact_rollbacks).

#ifndef SLAMPRED_SERVE_MODEL_REGISTRY_H_
#define SLAMPRED_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hot_row_cache.h"
#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "linalg/csr_matrix.h"
#include "optim/guardrails.h"
#include "serve/circuit_breaker.h"
#include "serve/topk_index.h"
#include "util/status.h"

namespace slampred {

/// One published model version: an immutable scoring session plus the
/// per-version serving state (top-K row cache, exclusion adjacency).
/// Always held behind shared_ptr<const ServableModel>.
struct ServableModel {
  ServableModel(ScoringSession session_in, std::uint64_t version_in,
                std::uint32_t checksum_in, CsrMatrix known_links_in,
                std::size_t max_topk_rows, HotRowCache hot_rows_in = {})
      : session(std::move(session_in)),
        version(version_in),
        checksum(checksum_in),
        known_links(std::move(known_links_in)),
        hot_rows(std::move(hot_rows_in)),
        topk(max_topk_rows) {}

  ServableModel(const ServableModel&) = delete;
  ServableModel& operator=(const ServableModel&) = delete;

  /// Order of the served score matrix.
  std::size_t num_users() const { return session.num_users(); }

  const ScoringSession session;
  /// Monotonic registry version; every response reports the version it
  /// was answered from.
  const std::uint64_t version;
  /// CRC-32 of the full serialized artifact, recomputed at swap time.
  const std::uint32_t checksum;
  /// Known-link adjacency for TopK exclusion (empty = no exclusions).
  const CsrMatrix known_links;
  /// Precomputed top-K row prefixes for the hot-user set, merged at
  /// swap time from the artifact-carried cache (float-oracle snapshots)
  /// and the registry's configured hot users. A top-K served from here
  /// reports tier `cached` and never touches the score payload.
  const HotRowCache hot_rows;
  /// Top-K responses answered from `hot_rows`.
  mutable std::atomic<std::uint64_t> hot_hits{0};
  /// Lazily-built per-row top-K order cache (interior mutex).
  mutable TopKIndex topk;
};

/// Registry construction knobs.
struct ModelRegistryOptions {
  /// LRU cap on resident top-K rows per model version.
  std::size_t max_resident_topk_rows = 64;
  /// Users whose top-K rows are precomputed at swap time, before the
  /// new version starts answering. Rows already carried by the artifact
  /// (written by the quantizer from the float scores) are kept as-is;
  /// rows for the remaining users here are built from the published
  /// session. Full orders also warm the TopKIndex up to its LRU cap.
  std::vector<std::uint32_t> hot_users;
  /// Entries kept per precomputed hot row (the served prefix).
  std::size_t hot_row_entries = 256;
  /// Extra SwapFromFile attempts after the first failure (the
  /// deterministic retry budget for torn/transient artifact reads).
  int swap_retry_attempts = 2;
  /// Sleep before the first retry; doubles per retry.
  std::chrono::milliseconds swap_retry_backoff{1};
  /// Circuit breaker guarding the swap path.
  CircuitBreakerOptions breaker;
};

/// Thread-safe owner of the current ServableModel.
class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Validates `artifact` and atomically publishes it as the next
  /// version. Validation re-serializes the artifact and re-parses the
  /// bytes, so every section CRC-32 and structural invariant is checked
  /// against exactly what a loader would accept; the "serve.swap" fault
  /// site fires between validation and publish. On any failure the
  /// previously published model keeps serving and swap_failures is
  /// incremented. `known_links`, when non-empty, must be a square
  /// matrix of the artifact's order; it backs TopK known-link exclusion.
  /// While the swap breaker is open, returns kUnavailable immediately
  /// without attempting the swap (not counted as a swap failure).
  Status Swap(ModelArtifact artifact, CsrMatrix known_links = {});

  /// Loads the artifact at `path` (offset-diagnosed kIoError on
  /// corruption) and Swap()s it in. On failure, retries the load+swap up
  /// to `swap_retry_attempts` more times with a doubling backoff, then
  /// falls back to the `.last_good` sidecar (see WriteArtifactAtomic);
  /// a successful rollback publishes the sidecar, increments
  /// RecoveryStats::artifact_rollbacks, and returns OK. One swap_failure
  /// is counted per failed primary path regardless of retry count.
  Status SwapFromFile(const std::string& path, CsrMatrix known_links = {});

  /// The currently published model, or nullptr before the first
  /// successful Swap. The returned snapshot stays valid (and immutable)
  /// for as long as the caller holds it, across any number of swaps.
  std::shared_ptr<const ServableModel> Acquire() const;

  /// Version of the currently published model (0 before the first).
  std::uint64_t current_version() const;

  /// Number of successfully published versions.
  std::uint64_t swap_count() const;

  /// Serving-side recovery counters (swap/batch failures, shed,
  /// deadline, breaker, degraded-tier and rollback counts).
  RecoveryStats recovery() const;

  /// Counts a failed batch dispatch (called by BatchScorer).
  void NoteBatchFailure();

  /// Counts a request rejected by admission control.
  void NoteShed();

  /// Counts a request shed because its deadline passed.
  void NoteDeadlineExceeded();

  /// Counts a circuit-breaker trip (swap or batch breaker).
  void NoteBreakerTrip();

  /// Counts a response answered off the full path (cached or degraded).
  void NoteDegradedResponse();

  /// The swap-path circuit breaker (read-only introspection).
  const CircuitBreaker& swap_breaker() const { return swap_breaker_; }

 private:
  /// Validation + publish, shared by Swap and SwapFromFile. Touches
  /// neither the counters nor the breaker — callers count one
  /// swap_failure per failed public operation, not per attempt.
  Status SwapValidated(ModelArtifact artifact, CsrMatrix known_links);

  /// Feeds a swap outcome into the breaker, counting any trip.
  void RecordSwapOutcome(bool ok);

  const ModelRegistryOptions options_;
  CircuitBreaker swap_breaker_;
  mutable std::mutex mutex_;
  std::shared_ptr<const ServableModel> current_;  // Guarded by mutex_.
  std::uint64_t next_version_ = 1;                // Guarded by mutex_.
  RecoveryStats recovery_;                        // Guarded by mutex_.
};

}  // namespace slampred

#endif  // SLAMPRED_SERVE_MODEL_REGISTRY_H_
