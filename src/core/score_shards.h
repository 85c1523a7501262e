// Sharded predictor — the merge product of the hierarchical
// partitioned solve, and the composite ScoreSource. Each cluster's
// sub-fit yields one ModelShard: the cluster's member list plus its
// score block, itself a source in local coordinates. Cross-cluster
// pairs are scored from the boundary source (global coordinates,
// symmetric) or default to 0 when uncovered. ShardedScores stitches the
// shards back into one n-user source, served shard by shard and never
// densified to n×n.

#ifndef SLAMPRED_CORE_SCORE_SHARDS_H_
#define SLAMPRED_CORE_SCORE_SHARDS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/score_source.h"
#include "util/status.h"

namespace slampred {

/// One cluster's fitted score block.
struct ModelShard {
  /// Ascending global user ids of the shard's members.
  std::vector<std::uint32_t> users;
  /// The members' scores in local coordinates (users.size() square).
  std::shared_ptr<const ScoreSource> block;

  /// Member ids strictly ascending; block present and sized to them.
  Status Validate() const;
};

/// The full sharded predictor: disjoint shards covering the users
/// [0, n) plus an optional symmetric boundary scoring cross-cluster
/// pairs.
class ShardedScores final : public ScoreSource {
 public:
  /// Validates and assembles: the shards must cover [0, num_users)
  /// exactly once and `boundary`, when present, must be num_users
  /// square.
  static Result<std::shared_ptr<const ShardedScores>> Create(
      std::vector<ModelShard> shards,
      std::shared_ptr<const ScoreSource> boundary, std::size_t num_users);

  std::size_t num_shards() const { return shards_.size(); }
  const std::vector<ModelShard>& shards() const { return shards_; }
  /// The boundary, or null when every cross-shard pair scores 0.
  const std::shared_ptr<const ScoreSource>& boundary() const {
    return boundary_;
  }

  std::size_t num_users() const override { return cluster_of_.size(); }

  /// Same shard → block lookup; different shards → boundary (0 when
  /// uncovered).
  double At(std::size_t u, std::size_t v) const override;

  void RowInto(std::size_t u, std::vector<double>& out) const override;

  /// Three-way ordered merge of the own-shard block row, the non-zero
  /// boundary entries and the zero tail of the remaining columns, each
  /// in serve order: O(n + m log m) for the m non-zero columns instead
  /// of the O(n log n) full-row argsort.
  TopKRowOrder RowOrder(std::size_t u) const override;

  std::size_t EstimatedBytes() const override;
  bool quantized() const override;
  std::string Describe() const override;

  /// Quantizes every block as a canonical upper triangle and the
  /// boundary as a sparse symmetric matrix; nothing n²-sized is
  /// materialised.
  Result<std::shared_ptr<const ScoreSource>> Quantize(
      QuantizationBits bits) const override;

 private:
  ShardedScores() = default;

  std::vector<ModelShard> shards_;
  std::vector<std::uint32_t> cluster_of_;   // size n
  std::vector<std::uint32_t> local_index_;  // size n
  std::shared_ptr<const ScoreSource> boundary_;
};

}  // namespace slampred

#endif  // SLAMPRED_CORE_SCORE_SHARDS_H_
