// BatchScorer — coalesces many small concurrent ScorePairs / TopK
// requests into batches dispatched over the shared thread pool.
//
// Work-conserving group commit: a caller enqueues its request, and a
// caller that finds no dispatch in flight becomes the leader at once:
// it claims a FIFO slice of the queue (up to max_batch_pairs pairs and
// max_batch_requests requests), Acquire()s ONE model snapshot for the
// whole batch (so a batch can never mix versions, even mid-hot-swap),
// scores it, and wakes every claimed caller. Requests that arrive while
// a dispatch is in flight queue behind it, and the first of their
// callers to find the lane free sends them together as the next batch.
// So a lone request on an idle service is dispatched without delay,
// and a request is coalesced only when it would have waited anyway.
//
// Determinism: scoring is a pure per-element lookup fanned out with the
// deterministic ParallelFor, so responses are bit-identical to the
// serial ScoringSession oracle regardless of coalescing boundaries or
// thread count.
//
// The "serve.batch" fault site fires once per dispatch; an injected
// fault fails every request of that batch (counted in
// RecoveryStats::batch_failures) and the next dispatch proceeds
// normally.
//
// Request-lifecycle robustness on top of the protocol:
//
//   * Deadlines — a request whose deadline passes while it is still in
//     the queue is removed (by its owner waking at the deadline, or by
//     the leader at claim time — whichever comes first), counted in
//     RecoveryStats::deadline_exceeded, and answered kDeadlineExceeded
//     without being dispatched. A request already claimed into a batch
//     is always answered by that batch; its owner sleeps until then.
//   * Admission control — with queue_cap set, an arrival that finds the
//     queue full is shed per ShedPolicy (the arrival itself, or the
//     oldest queued request making room for it), answered
//     kResourceExhausted and counted in RecoveryStats::shed.
//   * Circuit breaker — `breaker.failure_threshold` consecutive failed
//     dispatches trip the batch breaker; while it is open, batches are
//     answered from the cheap tier (cached top-K rows when resident,
//     else known-links common-neighbor scores) with responses tagged
//     cached/degraded, until a half-open probe dispatch succeeds.

#ifndef SLAMPRED_SERVE_BATCH_SCORER_H_
#define SLAMPRED_SERVE_BATCH_SCORER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/circuit_breaker.h"
#include "serve/model_registry.h"
#include "serve/scoring_kernels.h"
#include "util/status.h"

namespace slampred {

/// Which request is shed when an arrival finds the admission queue full.
enum class ShedPolicy {
  kRejectNewest,  ///< The arrival is rejected; queued work is kept.
  kRejectOldest,  ///< The oldest queued request is evicted to make room.
};

/// Batching knobs.
struct BatchScorerOptions {
  /// Cap on the pairs one dispatch claims (a request larger than this
  /// is still claimed, alone); the rest stay queued for the next one.
  std::size_t max_batch_pairs = 1024;
  /// Cap on the requests one dispatch claims.
  std::size_t max_batch_requests = 256;
  /// Bound on requests waiting in the admission queue (not yet claimed
  /// into a batch); 0 = unbounded (the historical behavior).
  std::size_t queue_cap = 0;
  /// Load-shedding policy applied when the queue is at queue_cap.
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  /// Circuit breaker guarding the full dispatch path.
  CircuitBreakerOptions breaker;
  /// When > 0, a TopK request whose remaining deadline budget is below
  /// this is answered from the cheap tier instead of sorting a full row
  /// (0 = never degrade on deadline pressure alone).
  std::chrono::microseconds degrade_topk_under{0};
};

/// Thread-safe batching front end over a ModelRegistry.
class BatchScorer {
 public:
  BatchScorer(ModelRegistry* registry, BatchScorerOptions options = {});

  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;

  /// Scores `pairs` against one consistent model snapshot. Blocks the
  /// calling thread until its batch is answered: on an idle service it
  /// is dispatched at once; otherwise it waits for the dispatch in
  /// flight (or, while still queued, at most until its deadline), then
  /// for its own batch. kFailedPrecondition before the first successful
  /// registry swap; kDeadlineExceeded / kResourceExhausted when shed.
  Result<ScoreBatchResponse> ScorePairs(const std::vector<UserPair>& pairs,
                                        const RequestOptions& request = {});

  /// Top-k retrieval for user `u`, batched like ScorePairs.
  Result<TopKResponse> TopK(std::size_t u, std::size_t k,
                            bool exclude_known_links,
                            const RequestOptions& request = {});

  const BatchScorerOptions& options() const { return options_; }

  /// Dispatches performed (each covers >= 1 request).
  std::size_t batches_dispatched() const;

  /// Requests that shared a dispatch with at least one other request.
  std::size_t coalesced_requests() const;

  /// Requests currently waiting in the admission queue (not yet claimed
  /// into a batch).
  std::size_t queue_depth() const;

  /// The batch-dispatch circuit breaker (read-only introspection).
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  struct Request {
    // Inputs.
    const std::vector<UserPair>* pairs = nullptr;  // Null for TopK.
    std::size_t u = 0;
    std::size_t k = 0;
    bool exclude_known_links = false;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    // Set under the scorer mutex when a leader takes the request into a
    // batch; from then on only that batch answers it.
    bool claimed = false;
    // Outputs — written by the dispatching leader, read by the owner
    // only after observing done == true under the scorer mutex.
    Status status;
    std::vector<double> scores;
    std::vector<TopKEntry> entries;
    std::uint64_t version = 0;
    ServeTier tier = ServeTier::kFull;
    bool done = false;
  };

  /// Weight of a request toward max_batch_pairs.
  static std::size_t Cost(const Request& request);

  /// Enqueues, waits / leads per the protocol above, returns when done.
  void RunQueued(Request& request);

  /// Claims a batch from the queue front and dispatches it. Called with
  /// the lock held; releases it during scoring.
  void DispatchLocked(std::unique_lock<std::mutex>& lock);

  /// Scores one claimed batch against one snapshot (no lock held).
  void ProcessBatch(const std::vector<Request*>& batch);

  /// Answers one claimed batch from the cheap tier (breaker open).
  void ProcessBatchCheap(const std::vector<Request*>& batch);

  /// Answers one request off the full path: cached top-K row when
  /// resident, else the degraded common-neighbor kernel.
  void AnswerCheap(const ServableModel& model, Request* request);

  ModelRegistry* const registry_;
  const BatchScorerOptions options_;
  CircuitBreaker breaker_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request*> queue_;  // Guarded by mutex_.
  bool dispatching_ = false;    // Guarded by mutex_.
  std::size_t batches_ = 0;     // Guarded by mutex_.
  std::size_t coalesced_ = 0;   // Guarded by mutex_.
};

}  // namespace slampred

#endif  // SLAMPRED_SERVE_BATCH_SCORER_H_
