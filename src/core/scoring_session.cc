#include "core/scoring_session.h"

#include <utility>

namespace slampred {

Result<ScoringSession> ScoringSession::FromFile(const std::string& path) {
  auto artifact = LoadModelArtifact(path);
  if (!artifact.ok()) return artifact.status();
  return FromArtifact(std::move(artifact).value());
}

Result<ScoringSession> ScoringSession::FromArtifact(ModelArtifact artifact) {
  if (artifact.scores == nullptr || artifact.scores->num_users() == 0) {
    return Status::InvalidArgument(
        "artifact holds no scores; nothing to serve");
  }
  return ScoringSession(std::move(artifact));
}

Result<double> ScoringSession::Score(std::size_t u, std::size_t v) const {
  if (u >= num_users_ || v >= num_users_) {
    return Status::OutOfRange(
        "pair (" + std::to_string(u) + ", " + std::to_string(v) +
        ") outside the served score matrix (" + std::to_string(num_users_) +
        " users)");
  }
  return ScoreUnchecked(u, v);
}

std::string ScoringSession::name() const {
  return std::string(SlamPredVariantName(artifact_.config)) + " (artifact)";
}

Result<std::vector<double>> ScoringSession::ScorePairs(
    const std::vector<UserPair>& pairs) const {
  SLAMPRED_RETURN_NOT_OK(CheckPairsInRange(pairs, num_users_));
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const UserPair& pair : pairs) {
    scores.push_back(ScoreUnchecked(pair.u, pair.v));
  }
  return scores;
}

}  // namespace slampred
