#include "serve/model_registry.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/binary_io.h"
#include "util/fault_injection.h"

namespace slampred {

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(options), swap_breaker_(options.breaker) {}

Status ModelRegistry::Swap(ModelArtifact artifact, CsrMatrix known_links) {
  if (!swap_breaker_.AllowRequest()) {
    return Status::Unavailable(
        "swap breaker open after repeated swap failures; serving version " +
        std::to_string(current_version()));
  }
  const Status status =
      SwapValidated(std::move(artifact), std::move(known_links));
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++recovery_.swap_failures;
  }
  RecordSwapOutcome(status.ok());
  return status;
}

Status ModelRegistry::SwapValidated(ModelArtifact artifact,
                                    CsrMatrix known_links) {
  // Validate by round-tripping through the on-disk form: the parse
  // recomputes every section CRC-32 and re-checks the structural
  // invariants, so only bytes a loader would accept can be published.
  const std::string bytes = SerializeModelArtifact(artifact);
  const std::uint32_t checksum = Crc32(bytes.data(), bytes.size());

  // Mid-swap fault window: validation has started, nothing published.
  const Status injected = InjectedFaultStatus("serve.swap", "model swap: ");
  if (!injected.ok()) return injected;

  auto reparsed = DeserializeModelArtifact(bytes);
  if (!reparsed.ok()) return reparsed.status();
  auto session = ScoringSession::FromArtifact(std::move(reparsed).value());
  if (!session.ok()) return session.status();

  const std::size_t n = session.value().num_users();
  if (known_links.rows() != 0 &&
      (known_links.rows() != n || known_links.cols() != n)) {
    return Status::InvalidArgument(
        "known-links adjacency is " + std::to_string(known_links.rows()) +
        "x" + std::to_string(known_links.cols()) +
        " but the artifact serves " + std::to_string(n) + " users");
  }
  ScoringSession live = std::move(session).value();

  // Merge the hot-row cache before publishing, outside the registry
  // lock: artifact-carried rows (float-oracle snapshots written by the
  // quantizer) win; the remaining configured hot users get rows built
  // from the session about to be published, so a quantized swap serves
  // its hot set warm from the first request. Full orders double as
  // TopKIndex seeds below.
  HotRowCache hot_rows;
  if (live.artifact().has_hot_rows) hot_rows = live.artifact().hot_rows;
  std::vector<std::pair<std::uint32_t, TopKRowOrder>> seeds;
  for (const std::uint32_t u : options_.hot_users) {
    if (u >= n || hot_rows.Find(u) != nullptr) continue;
    TopKRowOrder order = live.scores().RowOrder(u);
    hot_rows.AddRow(
        SnapshotHotRow(live.scores(), u, order, options_.hot_row_entries));
    seeds.emplace_back(u, std::move(order));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  auto model = std::make_shared<const ServableModel>(
      std::move(live), next_version_, checksum, std::move(known_links),
      options_.max_resident_topk_rows, std::move(hot_rows));

  // Warm the per-version TopK cache: registry-built full orders first
  // (they exist in hand), then artifact-carried complete rows (their
  // entries are the whole order), up to the LRU cap.
  std::size_t seeded = 0;
  for (auto& seed : seeds) {
    if (seeded >= options_.max_resident_topk_rows) break;
    model->topk.Insert(seed.first, std::move(seed.second));
    ++seeded;
  }
  for (const HotRow& row : model->hot_rows.rows()) {
    if (seeded >= options_.max_resident_topk_rows) break;
    if (!row.complete || model->topk.Peek(row.user) != nullptr) continue;
    TopKRowOrder order;
    order.reserve(row.entries.size());
    for (const HotRowEntry& entry : row.entries) order.push_back(entry.v);
    model->topk.Insert(row.user, std::move(order));
    ++seeded;
  }

  ++next_version_;
  current_ = std::move(model);  // Old version drains via shared_ptr.
  return Status::OK();
}

Status ModelRegistry::SwapFromFile(const std::string& path,
                                   CsrMatrix known_links) {
  if (!swap_breaker_.AllowRequest()) {
    return Status::Unavailable(
        "swap breaker open after repeated swap failures; serving version " +
        std::to_string(current_version()));
  }

  // Primary path with a deterministic retry budget: a torn write or a
  // transient read fault often clears within the backoff window.
  Status last = Status::OK();
  std::chrono::milliseconds backoff = options_.swap_retry_backoff;
  const int attempts = 1 + std::max(options_.swap_retry_attempts, 0);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    auto artifact = LoadModelArtifact(path);
    if (!artifact.ok()) {
      last = artifact.status();
      continue;
    }
    last = SwapValidated(std::move(artifact).value(), known_links);
    if (last.ok()) {
      RecordSwapOutcome(true);
      return last;
    }
  }

  // The primary failed for good: one swap_failure for the whole
  // operation, then roll back to the last-good sidecar so serving keeps
  // a valid (if older) model published.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++recovery_.swap_failures;
  }
  auto fallback = LoadModelArtifact(LastGoodArtifactPath(path));
  if (fallback.ok()) {
    const Status rolled_back =
        SwapValidated(std::move(fallback).value(), std::move(known_links));
    if (rolled_back.ok()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++recovery_.artifact_rollbacks;
      }
      RecordSwapOutcome(true);
      return Status::OK();
    }
  }
  RecordSwapOutcome(false);
  return last;
}

std::shared_ptr<const ServableModel> ModelRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ModelRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_ == nullptr ? 0 : current_->version;
}

std::uint64_t ModelRegistry::swap_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_version_ - 1;
}

RecoveryStats ModelRegistry::recovery() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovery_;
}

void ModelRegistry::NoteBatchFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recovery_.batch_failures;
}

void ModelRegistry::NoteShed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recovery_.shed;
}

void ModelRegistry::NoteDeadlineExceeded() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recovery_.deadline_exceeded;
}

void ModelRegistry::NoteBreakerTrip() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recovery_.breaker_trips;
}

void ModelRegistry::NoteDegradedResponse() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recovery_.degraded_responses;
}

void ModelRegistry::RecordSwapOutcome(bool ok) {
  if (ok) {
    swap_breaker_.RecordSuccess();
    return;
  }
  if (swap_breaker_.RecordFailure()) NoteBreakerTrip();
}

}  // namespace slampred
