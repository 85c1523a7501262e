#include "core/score_shards.h"

#include <algorithm>
#include <utility>

namespace slampred {
namespace {

// One (column, score) candidate of a row merge.
struct RankedColumn {
  std::uint32_t column;
  double score;
};

// The serve order: descending score, ascending column on ties.
bool RankedBefore(const RankedColumn& a, const RankedColumn& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.column < b.column;
}

}  // namespace

Status ModelShard::Validate() const {
  const std::size_t m = users.size();
  if (m == 0) return Status::InvalidArgument("shard has no users");
  for (std::size_t i = 1; i < m; ++i) {
    if (users[i] <= users[i - 1]) {
      return Status::InvalidArgument(
          "shard users must be strictly ascending");
    }
  }
  if (block == nullptr || block->num_users() != m) {
    return Status::InvalidArgument(
        "shard score block covers " +
        std::to_string(block == nullptr ? 0 : block->num_users()) +
        " users for " + std::to_string(m) + " members");
  }
  return Status::OK();
}

Result<std::shared_ptr<const ShardedScores>> ShardedScores::Create(
    std::vector<ModelShard> shards, std::shared_ptr<const ScoreSource> boundary,
    std::size_t num_users) {
  if (boundary != nullptr && boundary->num_users() != num_users) {
    return Status::InvalidArgument(
        "boundary covers " + std::to_string(boundary->num_users()) +
        " users for " + std::to_string(num_users));
  }
  ShardedScores out;
  out.cluster_of_.assign(num_users, 0);
  out.local_index_.assign(num_users, 0);
  std::vector<bool> covered(num_users, false);
  for (std::size_t c = 0; c < shards.size(); ++c) {
    SLAMPRED_RETURN_NOT_OK(shards[c].Validate());
    for (std::size_t i = 0; i < shards[c].users.size(); ++i) {
      const std::size_t u = shards[c].users[i];
      if (u >= num_users) {
        return Status::InvalidArgument(
            "shard " + std::to_string(c) + " names user " +
            std::to_string(u) + " outside [0, " + std::to_string(num_users) +
            ")");
      }
      if (covered[u]) {
        return Status::InvalidArgument("user " + std::to_string(u) +
                                       " appears in two shards");
      }
      covered[u] = true;
      out.cluster_of_[u] = static_cast<std::uint32_t>(c);
      out.local_index_[u] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t u = 0; u < num_users; ++u) {
    if (!covered[u]) {
      return Status::InvalidArgument("user " + std::to_string(u) +
                                     " is covered by no shard");
    }
  }
  out.shards_ = std::move(shards);
  out.boundary_ = std::move(boundary);
  return std::make_shared<const ShardedScores>(std::move(out));
}

double ShardedScores::At(std::size_t u, std::size_t v) const {
  const std::uint32_t cu = cluster_of_[u];
  if (cu == cluster_of_[v]) {
    return shards_[cu].block->At(local_index_[u], local_index_[v]);
  }
  return boundary_ == nullptr ? 0.0 : boundary_->At(u, v);
}

void ShardedScores::RowInto(std::size_t u, std::vector<double>& out) const {
  if (boundary_ == nullptr) {
    out.assign(num_users(), 0.0);
  } else {
    boundary_->RowInto(u, out);
  }
  const ModelShard& own = shards_[cluster_of_[u]];
  std::vector<double> block_row;
  own.block->RowInto(local_index_[u], block_row);
  for (std::size_t j = 0; j < own.users.size(); ++j) {
    out[own.users[j]] = block_row[j];
  }
}

TopKRowOrder ShardedScores::RowOrder(std::size_t u) const {
  const std::size_t n = num_users();
  const std::uint32_t cu = cluster_of_[u];
  const ModelShard& own = shards_[cu];

  std::vector<double> row;
  own.block->RowInto(local_index_[u], row);
  std::vector<RankedColumn> block;
  block.reserve(own.users.size());
  for (std::size_t j = 0; j < own.users.size(); ++j) {
    if (own.users[j] != u) block.push_back({own.users[j], row[j]});
  }
  std::sort(block.begin(), block.end(), RankedBefore);

  // Columns of the other shards: non-zero boundary scores sort; the
  // zeros are already in serve order (ascending column at equal score).
  if (boundary_ == nullptr) {
    row.assign(n, 0.0);
  } else {
    boundary_->RowInto(u, row);
  }
  std::vector<RankedColumn> cross;
  std::vector<std::uint32_t> tail;
  tail.reserve(n - own.users.size());
  for (std::size_t v = 0; v < n; ++v) {
    if (cluster_of_[v] == cu) continue;
    if (row[v] != 0.0) {
      cross.push_back({static_cast<std::uint32_t>(v), row[v]});
    } else {
      tail.push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::sort(cross.begin(), cross.end(), RankedBefore);

  TopKRowOrder order;
  order.reserve(n - 1);
  std::size_t bi = 0, ci = 0, ti = 0;
  while (order.size() < n - 1) {
    // Pick the earliest of the three heads under the serve order.
    int source = -1;
    RankedColumn best{0, 0.0};
    if (bi < block.size()) {
      best = block[bi];
      source = 0;
    }
    if (ci < cross.size() &&
        (source < 0 || RankedBefore(cross[ci], best))) {
      best = cross[ci];
      source = 1;
    }
    if (ti < tail.size()) {
      const RankedColumn zero{tail[ti], 0.0};
      if (source < 0 || RankedBefore(zero, best)) {
        best = zero;
        source = 2;
      }
    }
    order.push_back(best.column);
    if (source == 0) ++bi;
    else if (source == 1) ++ci;
    else ++ti;
  }
  return order;
}

std::size_t ShardedScores::EstimatedBytes() const {
  std::size_t bytes =
      (boundary_ == nullptr ? 0 : boundary_->EstimatedBytes()) +
      (cluster_of_.size() + local_index_.size()) * sizeof(std::uint32_t);
  for (const ModelShard& shard : shards_) {
    bytes += shard.users.size() * sizeof(std::uint32_t) +
             shard.block->EstimatedBytes();
  }
  return bytes;
}

bool ShardedScores::quantized() const {
  if (boundary_ != nullptr && boundary_->quantized()) return true;
  return std::any_of(shards_.begin(), shards_.end(), [](const ModelShard& s) {
    return s.block->quantized();
  });
}

std::string ShardedScores::Describe() const {
  return "sharded, " + std::to_string(shards_.size()) + " shard(s), " +
         (quantized() ? "quantized" : "float");
}

Result<std::shared_ptr<const ScoreSource>> ShardedScores::Quantize(
    QuantizationBits bits) const {
  std::vector<ModelShard> shards;
  shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto block = QuantizedSymmetricDense::FromMatrix(
        DenseScoreMatrix(*shards_[s].block), bits);
    if (!block.ok()) {
      return Status(block.status().code(),
                    "shard " + std::to_string(s) + ": " +
                        std::string(block.status().message()));
    }
    shards.push_back({shards_[s].users, std::make_shared<QuantizedBlockScores>(
                                            std::move(block).value())});
  }
  std::shared_ptr<const ScoreSource> boundary;
  if (boundary_ != nullptr) {
    auto quantized = boundary_->Quantize(bits);
    if (!quantized.ok()) {
      return Status(quantized.status().code(),
                    "boundary: " + std::string(quantized.status().message()));
    }
    boundary = std::move(quantized).value();
  }
  auto out = Create(std::move(shards), std::move(boundary), num_users());
  if (!out.ok()) return out.status();
  return std::shared_ptr<const ScoreSource>(std::move(out).value());
}

}  // namespace slampred
