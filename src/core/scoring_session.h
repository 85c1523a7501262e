// ScoringSession — the serve-many half of the train-once / serve-many
// split. Wraps a loaded ModelArtifact behind the LinkPredictor
// interface: Score / ScorePairs are pure lookups into the fitted
// predictor, no fit stage ever runs, so a session is cheap to construct
// and safe to keep hot in a serving process. Scores are bit-identical
// to the SlamPred model the artifact was snapshotted from. Every read
// goes to the artifact's ScoreSource, whatever its form, so a factored
// or sharded artifact is served without densifying anything n²-sized.

#ifndef SLAMPRED_CORE_SCORING_SESSION_H_
#define SLAMPRED_CORE_SCORING_SESSION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "baselines/link_predictor.h"
#include "core/model_artifact.h"
#include "util/status.h"

namespace slampred {

/// Serves link scores from a fitted model artifact.
class ScoringSession : public LinkPredictor {
 public:
  /// Loads the artifact at `path` (offset-diagnosed kIoError on any
  /// corruption) and validates it for serving.
  static Result<ScoringSession> FromFile(const std::string& path);

  /// Wraps an already-materialised artifact.
  static Result<ScoringSession> FromArtifact(ModelArtifact artifact);

  /// Number of users the fitted predictor covers.
  std::size_t num_users() const { return num_users_; }

  const ModelArtifact& artifact() const { return artifact_; }

  /// The served scores.
  const ScoreSource& scores() const { return *artifact_.scores; }

  /// Confidence score of (u, v); kOutOfRange when either id falls
  /// outside the fitted predictor.
  Result<double> Score(std::size_t u, std::size_t v) const;

  /// Unchecked score lookup — the hot serving path; callers must have
  /// bounds-checked (u, v) against num_users().
  double ScoreUnchecked(std::size_t u, std::size_t v) const {
    return artifact_.scores->At(u, v);
  }

  /// Fills `out` (resized to num_users) with u's full score row.
  void RowScores(std::size_t u, std::vector<double>& out) const {
    artifact_.scores->RowInto(u, out);
  }

  /// Variant name of the underlying config, marked as artifact-served.
  std::string name() const override;

  /// Batch scores; every pair is bounds-checked against the predictor.
  Result<std::vector<double>> ScorePairs(
      const std::vector<UserPair>& pairs) const override;

 private:
  explicit ScoringSession(ModelArtifact artifact)
      : artifact_(std::move(artifact)),
        num_users_(artifact_.scores->num_users()) {}

  ModelArtifact artifact_;
  std::size_t num_users_ = 0;
};

}  // namespace slampred

#endif  // SLAMPRED_CORE_SCORING_SESSION_H_
