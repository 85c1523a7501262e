// Request-scoring kernels shared by the direct and batched serving
// paths. Both paths call the same functions against one Acquire()'d
// ServableModel snapshot, so any coalescing and any thread count
// produce bit-identical results: a pair score is a pure lookup into the
// snapshot's S written by exactly one ParallelFor chunk, and a top-K
// answer streams the snapshot's deterministic per-row sorted order.

#ifndef SLAMPRED_SERVE_SCORING_KERNELS_H_
#define SLAMPRED_SERVE_SCORING_KERNELS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/social_graph.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace slampred {

/// Which path produced a response. `kFull` is the bit-exact contract
/// path (snapshot S lookups / cached sorted-row order); `kCached`
/// answers a top-K from an already-resident sorted row when the full
/// path is unavailable; `kDegraded` answers from the known-links CSR
/// (common-neighbor scores) when even the cache cannot help. Only
/// `kFull` responses carry the determinism guarantee.
enum class ServeTier { kFull, kCached, kDegraded };

/// Stable name of a serve tier ("full" / "cached" / "degraded").
const char* ServeTierName(ServeTier tier);

/// Per-request serving options (deadline and future per-request knobs).
struct RequestOptions {
  /// Absolute point after which the request should be shed rather than
  /// answered; time_point::max() (the default) means no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  /// Options with a deadline `timeout` from now.
  static RequestOptions WithTimeout(std::chrono::nanoseconds timeout) {
    RequestOptions options;
    options.deadline = std::chrono::steady_clock::now() + timeout;
    return options;
  }
};

/// One retrieved neighbor candidate of a TopK query.
struct TopKEntry {
  std::size_t v;  ///< Candidate user.
  double score;   ///< Confidence score of (u, v).

  bool operator==(const TopKEntry& other) const {
    return v == other.v && score == other.score;
  }
};

/// Batch pair scores answered from one model version.
struct ScoreBatchResponse {
  std::vector<double> scores;
  std::uint64_t version = 0;  ///< Registry version that answered.
  ServeTier tier = ServeTier::kFull;  ///< Path that produced the scores.
};

/// Top-K retrieval answered from one model version.
struct TopKResponse {
  std::vector<TopKEntry> entries;  ///< At most k, best first.
  std::uint64_t version = 0;       ///< Registry version that answered.
  ServeTier tier = ServeTier::kFull;  ///< Path that produced the entries.
};

/// Scores every pair against `model`'s S, fanned out deterministically
/// over the shared thread pool. Bit-identical to the serial
/// ScoringSession::ScorePairs oracle; every pair is bounds-checked
/// (kOutOfRange names the first offending pair, like the oracle).
Result<std::vector<double>> ScorePairsOnModel(
    const ServableModel& model, const std::vector<UserPair>& pairs);

/// The top `k` candidates v for user `u` by descending score (ties by
/// ascending v; v == u never returned), streamed from the model's
/// lazily-built sorted-row cache. With `exclude_known_links` set, every
/// v stored in row u of the model's known-links adjacency is skipped.
/// Returns fewer than k entries when fewer candidates exist; kOutOfRange
/// when u is outside the served matrix.
///
/// A hot user (model.hot_rows) whose precomputed prefix covers the
/// request is answered from the stored (v, score) pairs — the float
/// oracle snapshot, never the quantized payload — and `tier_out` (when
/// non-null) reports kCached; otherwise the full path runs and reports
/// kFull. Hot-row entry order matches the full path's bit-exactly, so
/// the tier changes cost, never results.
Result<std::vector<TopKEntry>> TopKOnModel(const ServableModel& model,
                                           std::size_t u, std::size_t k,
                                           bool exclude_known_links,
                                           ServeTier* tier_out = nullptr);

/// Cached-tier top-K: answers from a precomputed hot row whose prefix
/// covers the request, else from an already-resident sorted row of the
/// model's top-K cache (TopKIndex::Peek) — full-quality entries, but
/// only when they are free. Returns true and fills `entries` on a
/// cache hit; false (building nothing) on a miss or out-of-range `u`,
/// in which case the caller falls through to the degraded kernel.
bool CachedTopKOnModel(const ServableModel& model, std::size_t u,
                       std::size_t k, bool exclude_known_links,
                       std::vector<TopKEntry>* entries);

/// Degraded-tier pair scores: the common-neighbor count of (u, v) in the
/// model's known-links CSR instead of a lookup into S. Cheap (two sorted
/// row intersections per pair, no dense matrix touched), deterministic,
/// and well-ordered — but NOT comparable to full-tier scores. Bounds are
/// checked against the adjacency; an empty adjacency scores every pair 0.
Result<std::vector<double>> DegradedScorePairsOnModel(
    const ServableModel& model, const std::vector<UserPair>& pairs);

/// Degraded-tier top-K: candidates ranked by common-neighbor count with
/// `u` (descending count, ties by ascending v; v == u and zero-count
/// candidates never returned). With `exclude_known_links`, direct
/// neighbors of u are skipped. Touches only rows of the CSR reachable
/// within two hops of u.
Result<std::vector<TopKEntry>> DegradedTopKOnModel(const ServableModel& model,
                                                   std::size_t u,
                                                   std::size_t k,
                                                   bool exclude_known_links);

}  // namespace slampred

#endif  // SLAMPRED_SERVE_SCORING_KERNELS_H_
