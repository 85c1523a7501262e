#include "serve/batch_scorer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace slampred {

BatchScorer::BatchScorer(ModelRegistry* registry, BatchScorerOptions options)
    : registry_(registry), options_(options), breaker_(options.breaker) {}

std::size_t BatchScorer::Cost(const Request& request) {
  return request.pairs != nullptr ? std::max<std::size_t>(
                                        request.pairs->size(), 1)
                                  : 1;
}

Result<ScoreBatchResponse> BatchScorer::ScorePairs(
    const std::vector<UserPair>& pairs, const RequestOptions& options) {
  Request request;
  request.pairs = &pairs;
  request.deadline = options.deadline;
  RunQueued(request);
  if (!request.status.ok()) return request.status;
  return ScoreBatchResponse{std::move(request.scores), request.version,
                            request.tier};
}

Result<TopKResponse> BatchScorer::TopK(std::size_t u, std::size_t k,
                                       bool exclude_known_links,
                                       const RequestOptions& options) {
  Request request;
  request.u = u;
  request.k = k;
  request.exclude_known_links = exclude_known_links;
  request.deadline = options.deadline;
  RunQueued(request);
  if (!request.status.ok()) return request.status;
  return TopKResponse{std::move(request.entries), request.version,
                      request.tier};
}

void BatchScorer::RunQueued(Request& request) {
  const bool has_deadline =
      request.deadline != std::chrono::steady_clock::time_point::max();

  std::unique_lock<std::mutex> lock(mutex_);

  if (has_deadline && std::chrono::steady_clock::now() >= request.deadline) {
    request.status = Status::DeadlineExceeded(
        "deadline passed before the request could be queued");
    registry_->NoteDeadlineExceeded();
    return;
  }

  // Admission control: a full queue sheds one request per ShedPolicy.
  if (options_.queue_cap > 0 && queue_.size() >= options_.queue_cap) {
    if (options_.shed_policy == ShedPolicy::kRejectNewest) {
      request.status = Status::ResourceExhausted(
          "admission queue at cap " + std::to_string(options_.queue_cap) +
          "; request shed (reject-newest)");
      registry_->NoteShed();
      return;
    }
    // Reject-oldest: evict the front of the queue to make room.
    Request* victim = queue_.front();
    queue_.pop_front();
    victim->status = Status::ResourceExhausted(
        "shed from a full admission queue (reject-oldest, cap " +
        std::to_string(options_.queue_cap) + ")");
    victim->done = true;
    registry_->NoteShed();
    cv_.notify_all();  // Wake the evicted owner promptly.
  }

  queue_.push_back(&request);
  while (!request.done) {
    if (!dispatching_) {
      // Idle lane: lead at once, claiming this request together with
      // whatever queued behind the previous dispatch.
      DispatchLocked(lock);
      continue;
    }
    // A dispatch is in flight; it always ends with notify_all, so the
    // wait cannot hang. Only a still-queued request wakes at its own
    // deadline: a claimed one sleeps until its batch answers it.
    if (!has_deadline || request.claimed) {
      cv_.wait(lock);
      continue;
    }
    cv_.wait_until(lock, request.deadline);
    if (!request.claimed && !request.done &&
        std::chrono::steady_clock::now() >= request.deadline) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), &request));
      request.status = Status::DeadlineExceeded(
          "deadline passed while waiting in the admission queue");
      request.done = true;
      registry_->NoteDeadlineExceeded();
      return;
    }
  }
}

void BatchScorer::DispatchLocked(std::unique_lock<std::mutex>& lock) {
  dispatching_ = true;
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request*> batch;
  std::size_t batch_pairs = 0;
  bool dropped_expired = false;
  while (!queue_.empty() && batch.size() < options_.max_batch_requests) {
    Request* next = queue_.front();
    const std::size_t cost = Cost(*next);
    if (next->deadline <= now) {
      // Expired while queued: shed before dispatch, never scored.
      queue_.pop_front();
      next->status = Status::DeadlineExceeded(
          "deadline passed while waiting in the admission queue");
      next->done = true;
      registry_->NoteDeadlineExceeded();
      dropped_expired = true;
      continue;
    }
    if (!batch.empty() && batch_pairs + cost > options_.max_batch_pairs) {
      break;
    }
    queue_.pop_front();
    next->claimed = true;
    batch.push_back(next);
    batch_pairs += cost;
  }
  if (dropped_expired) cv_.notify_all();  // Wake expired owners promptly.
  if (batch.empty()) {
    dispatching_ = false;
    return;
  }
  ++batches_;
  if (batch.size() > 1) coalesced_ += batch.size();

  lock.unlock();
  ProcessBatch(batch);
  lock.lock();
  dispatching_ = false;
  for (Request* request : batch) request->done = true;
  cv_.notify_all();
}

void BatchScorer::ProcessBatch(const std::vector<Request*>& batch) {
  if (!breaker_.AllowRequest()) {
    // Breaker open: the full dispatch path is quarantined. Answer from
    // the cheap tier against the last-good model instead of failing.
    ProcessBatchCheap(batch);
    return;
  }
  const Status injected =
      InjectedFaultStatus("serve.batch", "batch dispatch: ");
  if (!injected.ok()) {
    registry_->NoteBatchFailure();
    if (breaker_.RecordFailure()) registry_->NoteBreakerTrip();
    for (Request* request : batch) request->status = injected;
    return;
  }
  const std::shared_ptr<const ServableModel> model = registry_->Acquire();
  if (model == nullptr) {
    // Not a path failure — there is simply nothing published yet; the
    // breaker state is left untouched.
    for (Request* request : batch) {
      request->status = Status::FailedPrecondition(
          "no model published; Swap one into the registry first");
    }
    return;
  }
  const ScoringSession& session = model->session;
  const std::size_t n = session.num_users();

  // Validate and flatten the pair requests into one contiguous batch.
  std::vector<Request*> topk_requests;
  std::vector<std::pair<Request*, std::size_t>> flat_slices;
  std::vector<UserPair> flat;
  for (Request* request : batch) {
    request->version = model->version;
    if (request->pairs == nullptr) {
      topk_requests.push_back(request);
      continue;
    }
    const std::vector<UserPair>& pairs = *request->pairs;
    request->status = CheckPairsInRange(pairs, n);
    if (!request->status.ok()) continue;
    flat_slices.emplace_back(request, flat.size());
    flat.insert(flat.end(), pairs.begin(), pairs.end());
  }

  // One deterministic fan-out over every coalesced pair: each output
  // element has exactly one writing chunk, so the scores are
  // bit-identical to the serial oracle at any thread count.
  std::vector<double> flat_scores(flat.size());
  ParallelFor(0, flat.size(), GrainForWork(8),
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  flat_scores[i] = session.ScoreUnchecked(flat[i].u, flat[i].v);
                }
              });
  for (const auto& [request, offset] : flat_slices) {
    request->scores.assign(
        flat_scores.begin() + static_cast<std::ptrdiff_t>(offset),
        flat_scores.begin() +
            static_cast<std::ptrdiff_t>(offset + request->pairs->size()));
  }

  // Top-K requests fan out one request per index (row sorts dominate).
  // A request too close to its deadline for a full row sort is answered
  // from the cheap tier instead (only when degrade_topk_under is set).
  const auto topk_now = std::chrono::steady_clock::now();
  ParallelFor(0, topk_requests.size(), 1,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  Request* request = topk_requests[i];
                  if (options_.degrade_topk_under.count() > 0 &&
                      request->deadline !=
                          std::chrono::steady_clock::time_point::max() &&
                      request->deadline - topk_now <
                          options_.degrade_topk_under) {
                    AnswerCheap(*model, request);
                    continue;
                  }
                  ServeTier tier = ServeTier::kFull;
                  auto result = TopKOnModel(*model, request->u, request->k,
                                            request->exclude_known_links,
                                            &tier);
                  if (result.ok()) {
                    request->entries = std::move(result).value();
                    request->tier = tier;
                  } else {
                    request->status = result.status();
                  }
                }
              });

  // The full path ran to completion: per-request argument errors (e.g.
  // out-of-range pairs) are caller mistakes, not path failures.
  breaker_.RecordSuccess();
}

void BatchScorer::ProcessBatchCheap(const std::vector<Request*>& batch) {
  const std::shared_ptr<const ServableModel> model = registry_->Acquire();
  if (model == nullptr) {
    for (Request* request : batch) {
      request->status = Status::FailedPrecondition(
          "no model published; Swap one into the registry first");
    }
    return;
  }
  for (Request* request : batch) {
    request->version = model->version;
    AnswerCheap(*model, request);
  }
}

void BatchScorer::AnswerCheap(const ServableModel& model, Request* request) {
  if (request->pairs != nullptr) {
    auto result = DegradedScorePairsOnModel(model, *request->pairs);
    if (!result.ok()) {
      request->status = result.status();
      return;
    }
    request->scores = std::move(result).value();
    request->tier = ServeTier::kDegraded;
  } else if (CachedTopKOnModel(model, request->u, request->k,
                               request->exclude_known_links,
                               &request->entries)) {
    request->tier = ServeTier::kCached;
  } else {
    auto result = DegradedTopKOnModel(model, request->u, request->k,
                                      request->exclude_known_links);
    if (!result.ok()) {
      request->status = result.status();
      return;
    }
    request->entries = std::move(result).value();
    request->tier = ServeTier::kDegraded;
  }
  registry_->NoteDegradedResponse();
}

std::size_t BatchScorer::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

std::size_t BatchScorer::coalesced_requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

std::size_t BatchScorer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace slampred
