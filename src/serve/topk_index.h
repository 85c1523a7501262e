// Lazily-built per-row top-K retrieval index over a session's scores —
// the serving primitive behind ScoringService::TopK. The first TopK
// touching row u builds that row's serve order once (ScoreSource::
// RowOrder: descending score, ascending column on ties, the self column
// u excluded) and caches it; later queries for any k stream the cached
// order. An LRU
// cap bounds resident rows so memory stays O(max_resident_rows · n) on
// large models. Rows are handed out as shared_ptr, so eviction never
// invalidates an order a concurrent query is still streaming — eviction
// changes timing only, never results.

#ifndef SLAMPRED_SERVE_TOPK_INDEX_H_
#define SLAMPRED_SERVE_TOPK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/score_source.h"

namespace slampred {

class ScoringSession;

/// Thread-safe LRU cache of per-row sorted column orders.
class TopKIndex {
 public:
  /// Caps resident rows at `max_resident_rows` (min 1).
  explicit TopKIndex(std::size_t max_resident_rows = 64);

  /// The serve order of row `u` of the session's scores, built and
  /// cached on first use; `u` must be < session.num_users(). The same
  /// session must be passed for the lifetime of the index (one index
  /// per model).
  std::shared_ptr<const TopKRowOrder> Row(const ScoringSession& session,
                                          std::size_t u);

  /// The cached order of row `u` if resident, else null — never builds.
  /// The cheap-path probe behind the `cached` serve tier: a hit answers
  /// without touching the score matrix beyond the cached order; a miss
  /// tells the caller to fall through to the degraded kernel. Does not
  /// refresh the row's LRU position (a probe is not a use).
  std::shared_ptr<const TopKRowOrder> Peek(std::size_t u) const;

  /// Seeds the cache with an already-built order (swap-time warmup of
  /// hot-user rows). Follows the same first-insert-wins rule as Row: a
  /// resident row is kept, not replaced. Counts as a use for LRU.
  void Insert(std::size_t u, TopKRowOrder order);

  std::size_t max_resident_rows() const { return max_resident_rows_; }

  /// Rows currently resident in the cache.
  std::size_t resident_rows() const;

  /// Total row builds since construction (> resident when evicted rows
  /// were rebuilt).
  std::size_t builds() const;

  /// Rows evicted by the LRU cap.
  std::size_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const TopKRowOrder> order;
    std::list<std::size_t>::iterator lru_pos;
  };

  const std::size_t max_resident_rows_;
  mutable std::mutex mutex_;
  std::list<std::size_t> lru_;  // Front = most recently used. Guarded.
  std::unordered_map<std::size_t, Entry> rows_;  // Guarded by mutex_.
  std::size_t builds_ = 0;                       // Guarded by mutex_.
  std::size_t evictions_ = 0;                    // Guarded by mutex_.
};

/// The serve order of row `u`, built directly (the cache-free
/// reference): session.scores().RowOrder(u).
TopKRowOrder BuildTopKRowOrder(const ScoringSession& session, std::size_t u);

}  // namespace slampred

#endif  // SLAMPRED_SERVE_TOPK_INDEX_H_
