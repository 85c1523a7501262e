#include "serve/artifact_quantizer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/hot_row_cache.h"
#include "core/scoring_session.h"

namespace slampred {
namespace {

// The hot-user ids actually snapshotted: the explicit set when given
// (in-range ids only, duplicates dropped), else the first `count` ids.
std::vector<std::uint32_t> ResolveHotUsers(
    const ArtifactQuantizerOptions& options, std::size_t n) {
  std::vector<std::uint32_t> users;
  if (!options.hot_user_ids.empty()) {
    users = options.hot_user_ids;
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    while (!users.empty() && users.back() >= n) users.pop_back();
    return users;
  }
  const std::size_t count = std::min(options.hot_user_count, n);
  users.reserve(count);
  for (std::size_t u = 0; u < count; ++u) {
    users.push_back(static_cast<std::uint32_t>(u));
  }
  return users;
}

}  // namespace

Result<ModelArtifact> QuantizeModelArtifact(
    ModelArtifact artifact, const ArtifactQuantizerOptions& options,
    ArtifactQuantizeReport* report) {
  if (artifact.scores != nullptr && artifact.scores->quantized()) {
    return Status::FailedPrecondition(
        "artifact is already quantized; quantization starts from the "
        "float form");
  }

  std::uint64_t float_bytes = 0;
  if (report != nullptr) {
    float_bytes = SerializeModelArtifact(artifact).size();
  }

  // Wrapping the input in a session validates it as servable.
  auto session = ScoringSession::FromArtifact(std::move(artifact));
  if (!session.ok()) return session.status();
  const ModelArtifact& input = session.value().artifact();
  const ScoreSource& oracle = *input.scores;

  // The hot rows are snapshotted from the float scores — the oracle
  // order and the oracle scores, taken before the float payload is
  // dropped.
  HotRowCache hot_rows;
  for (const std::uint32_t u : ResolveHotUsers(options, oracle.num_users())) {
    hot_rows.AddRow(
        SnapshotHotRow(oracle, u, oracle.RowOrder(u), options.hot_row_entries));
  }

  auto quantized = oracle.Quantize(options.bits);
  if (!quantized.ok()) return quantized.status();

  ModelArtifact out;
  out.config = input.config;
  out.scores = std::move(quantized).value();
  out.adapted_tensors = input.adapted_tensors;
  out.has_adapted_tensors = input.has_adapted_tensors;
  out.hot_rows = std::move(hot_rows);
  out.has_hot_rows = !out.hot_rows.empty();

  if (report != nullptr) {
    report->bits = options.bits;
    report->float_bytes = float_bytes;
    report->quantized_bytes = SerializeModelArtifact(out).size();
    report->hot_rows = out.hot_rows.size();
  }
  return out;
}

}  // namespace slampred
