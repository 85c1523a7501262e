// ScoringService — the thread-safe concurrent serving layer over loaded
// model artifacts; the production front end of the train-once /
// serve-many split (ScoringSession remains the single-caller serial
// oracle it is bit-compared against).
//
//   ModelRegistry registry;                      // owns the artifact(s)
//   registry.SwapFromFile("model.slpmodel");     // or Swap(artifact)
//   ScoringService service(&registry);
//   auto scores = service.ScorePairs(pairs);     // from any thread
//   auto best = service.TopK(u, 10, /*exclude_known_links=*/true);
//
// Any number of threads may call Score / ScorePairs / TopK while
// another thread hot-swaps a new artifact version into the registry:
// each request is answered from exactly one Acquire()'d model snapshot
// (responses carry the version), old versions drain via shared
// ownership, and results are bit-identical to the serial oracle at any
// thread count. See DESIGN.md "Concurrent serving layer".

#ifndef SLAMPRED_CORE_SCORING_SERVICE_H_
#define SLAMPRED_CORE_SCORING_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/batch_scorer.h"
#include "serve/model_registry.h"
#include "serve/scoring_kernels.h"
#include "util/status.h"

namespace slampred {

/// Concurrent scoring front end over a ModelRegistry.
class ScoringService {
 public:
  /// Serves from `registry` (not owned; must outlive the service).
  explicit ScoringService(ModelRegistry* registry,
                          BatchScorerOptions batch = {});

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Confidence score of (u, v) from the current model — a single
  /// unbatched lookup. kFailedPrecondition before the first swap,
  /// kOutOfRange outside the served matrix.
  Result<double> Score(std::size_t u, std::size_t v) const;

  /// Batch scores answered from one consistent model snapshot. A
  /// request that finds no dispatch in flight is dispatched at once;
  /// requests that arrive during a dispatch are coalesced into the next
  /// one (see BatchScorer). `request` carries
  /// per-request options (deadline): a request whose deadline passes
  /// while queued is answered kDeadlineExceeded, and a full admission
  /// queue sheds with kResourceExhausted. A request already claimed into
  /// a batch is answered by it, even past its deadline. The response's
  /// `tier` says which path answered (full / cached / degraded).
  Result<ScoreBatchResponse> ScorePairs(const std::vector<UserPair>& pairs,
                                        const RequestOptions& request = {});

  /// Per-user top-K retrieval (best k candidates v for user u,
  /// descending score, ties by ascending v, self excluded). With
  /// `exclude_known_links`, candidates stored in the registry's
  /// known-links adjacency row u are skipped — serve only *new* links.
  /// Deadline / shed / tier semantics as in ScorePairs.
  Result<TopKResponse> TopK(std::size_t u, std::size_t k,
                            bool exclude_known_links = false,
                            const RequestOptions& request = {});

  /// Version currently published by the registry (0 = none yet).
  std::uint64_t current_version() const;

  /// Serving-side recovery counters of the underlying registry.
  RecoveryStats recovery() const;

  const ModelRegistry& registry() const { return *registry_; }
  const BatchScorer& batcher() const { return batcher_; }

 private:
  ModelRegistry* const registry_;
  BatchScorer batcher_;
};

}  // namespace slampred

#endif  // SLAMPRED_CORE_SCORING_SERVICE_H_
