#include "core/model_artifact.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/score_shards.h"
#include "graph/graph_io.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

constexpr char kMagic[8] = {'S', 'L', 'P', 'M', 'O', 'D', 'E', 'L'};

// Section ids of format version 1. kSectionLowRankFactors is an
// additive extension within the version: readers predating it skip the
// section (checksum still verified) and fail cleanly on the missing
// score matrix rather than misreading the factors.
enum SectionId : std::uint32_t {
  kSectionConfig = 1,
  kSectionScoreMatrix = 2,
  kSectionAdaptedTensors = 3,
  kSectionLowRankFactors = 4,
  // Sharded (partitioned-fit) artifacts: one manifest (user count +
  // per-shard user ranges), then one section per shard (its index +
  // ModelShard payload) so a serving registry can re-publish a single
  // shard, then the boundary-refinement CSR.
  kSectionShardManifest = 5,
  kSectionShard = 6,
  kSectionBoundary = 7,
  // Quantized artifacts (DESIGN.md §15). All additive within the
  // format version: old readers skip them (checksums still verified)
  // and fail cleanly on the missing float payload.
  kSectionQuantizedScores = 8,    // full-matrix QuantizedMatrix
  kSectionQuantizedShard = 9,     // shard index + users + quantized block
  kSectionQuantizedBoundary = 10,  // QuantizedSymmetricCsr
  kSectionHotCache = 11,          // precomputed hot-user row prefixes
};

// The config is stored field by field in a fixed order; any layout
// change here must bump kModelArtifactFormatVersion.
void SerializeConfig(const SlamPredConfig& config, BinaryWriter& writer) {
  writer.WriteDouble(config.alpha_target);
  writer.WriteU64(config.alpha_sources.size());
  for (double alpha : config.alpha_sources) writer.WriteDouble(alpha);
  writer.WriteDouble(config.mu);
  writer.WriteDouble(config.gamma);
  writer.WriteDouble(config.tau);
  writer.WriteDouble(16.0);  // The retired intimacy_scale (now fixed).
  writer.WriteU64(config.latent_dim);
  writer.WriteBool(config.use_attributes);
  writer.WriteBool(config.use_sources);
  writer.WriteBool(config.domain_adaptation);
  writer.WriteBool(false);  // The retired project_target_features flag.
  writer.WriteU8(0);        // The retired loss kind (squared Frobenius).
  writer.WriteU64(config.seed);

  const FeatureTensorOptions& f = config.features;
  writer.WriteBool(f.common_neighbors);
  writer.WriteBool(f.jaccard);
  writer.WriteBool(f.adamic_adar);
  writer.WriteBool(f.resource_allocation);
  writer.WriteBool(f.preferential_attachment);
  writer.WriteBool(f.truncated_katz);
  writer.WriteDouble(f.katz_beta);
  writer.WriteBool(f.word_similarity);
  writer.WriteBool(f.location_similarity);
  writer.WriteBool(f.time_similarity);
  writer.WriteBool(f.meta_paths);
  writer.WriteBool(f.sqrt_transform);

  // The retired adapter options (projection latent_dim and mu, the
  // three instance-sampling counts, normalize_adapted), pinned to their
  // last defaults so the section layout and every fixture stay
  // unchanged.
  writer.WriteU64(5);
  writer.WriteDouble(1.0);
  writer.WriteU64(150);
  writer.WriteU64(150);
  writer.WriteU64(50);
  writer.WriteBool(true);

  const CccpOptions& o = config.optimization;
  writer.WriteDouble(o.inner.theta);
  writer.WriteI32(o.inner.max_iterations);
  writer.WriteDouble(o.inner.tol);
  writer.WriteBool(o.inner.project_unit_box);
  writer.WriteBool(o.inner.keep_symmetric);
  writer.WriteBool(o.inner.guardrails.enabled);
  writer.WriteDouble(o.inner.guardrails.backoff_factor);
  writer.WriteI32(o.inner.guardrails.max_recoveries);
  writer.WriteDouble(o.inner.guardrails.divergence_factor);
  writer.WriteI32(o.inner.guardrails.divergence_window);
  writer.WriteI32(o.inner.guardrails.max_svd_fallbacks);
  writer.WriteI32(o.inner.guardrails.max_checkpoint_resumes);
  // The retired randomized-prox options (use_randomized, rank,
  // oversampling, power_iterations, seed), pinned to their last
  // defaults so the section layout and every fixture stay unchanged.
  writer.WriteBool(false);
  writer.WriteU64(10);
  writer.WriteU64(8);
  writer.WriteI32(2);
  writer.WriteU64(0x5eedULL);
  writer.WriteI32(o.max_outer_iterations);
  writer.WriteDouble(o.outer_tol);
}

#define SLAMPRED_READ_INTO(lhs, expr)            \
  do {                                           \
    auto _read = (expr);                         \
    if (!_read.ok()) return _read.status();      \
    lhs = _read.value();                         \
  } while (false)

Result<SlamPredConfig> DeserializeConfig(BinaryReader& reader) {
  SlamPredConfig config;
  SLAMPRED_READ_INTO(config.alpha_target, reader.ReadDouble());
  std::uint64_t num_alpha_sources = 0;
  SLAMPRED_READ_INTO(num_alpha_sources, reader.ReadU64());
  if (num_alpha_sources > reader.remaining() / sizeof(double)) {
    return reader.Truncated(
        static_cast<std::size_t>(num_alpha_sources) * sizeof(double),
        "alpha_sources");
  }
  config.alpha_sources.assign(static_cast<std::size_t>(num_alpha_sources),
                              0.0);
  for (double& alpha : config.alpha_sources) {
    SLAMPRED_READ_INTO(alpha, reader.ReadDouble());
  }
  SLAMPRED_READ_INTO(config.mu, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.gamma, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.tau, reader.ReadDouble());
  // The retired intimacy_scale: still read, so a truncation fails as
  // before, then dropped (the fit's scale is the constant 16).
  SLAMPRED_RETURN_NOT_OK(reader.ReadDouble().status());
  SLAMPRED_READ_INTO(config.latent_dim, reader.ReadU64());
  SLAMPRED_READ_INTO(config.use_attributes, reader.ReadBool());
  SLAMPRED_READ_INTO(config.use_sources, reader.ReadBool());
  SLAMPRED_READ_INTO(config.domain_adaptation, reader.ReadBool());
  // The retired project_target_features flag and loss kind: still read,
  // so a corrupt bool or a loss kind past the two that were ever
  // written (0 squared Frobenius, 1 squared hinge) fails as before,
  // then dropped.
  SLAMPRED_RETURN_NOT_OK(reader.ReadBool().status());
  const std::size_t loss_offset = reader.offset();
  std::uint8_t loss = 0;
  SLAMPRED_READ_INTO(loss, reader.ReadU8());
  if (loss > 1) {
    return Status::IoError("corrupt loss kind " + std::to_string(loss) +
                           " at offset " + std::to_string(loss_offset));
  }
  SLAMPRED_READ_INTO(config.seed, reader.ReadU64());

  FeatureTensorOptions& f = config.features;
  SLAMPRED_READ_INTO(f.common_neighbors, reader.ReadBool());
  SLAMPRED_READ_INTO(f.jaccard, reader.ReadBool());
  SLAMPRED_READ_INTO(f.adamic_adar, reader.ReadBool());
  SLAMPRED_READ_INTO(f.resource_allocation, reader.ReadBool());
  SLAMPRED_READ_INTO(f.preferential_attachment, reader.ReadBool());
  SLAMPRED_READ_INTO(f.truncated_katz, reader.ReadBool());
  SLAMPRED_READ_INTO(f.katz_beta, reader.ReadDouble());
  SLAMPRED_READ_INTO(f.word_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.location_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.time_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.meta_paths, reader.ReadBool());
  SLAMPRED_READ_INTO(f.sqrt_transform, reader.ReadBool());

  // The retired adapter options: read and dropped, as above.
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadDouble().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadBool().status());

  CccpOptions& o = config.optimization;
  SLAMPRED_READ_INTO(o.inner.theta, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.max_iterations, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.tol, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.project_unit_box, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.keep_symmetric, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.guardrails.enabled, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.guardrails.backoff_factor, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_recoveries, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.divergence_factor,
                     reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.guardrails.divergence_window, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_svd_fallbacks, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_checkpoint_resumes,
                     reader.ReadI32());
  // The retired randomized-prox options: still read, so a corrupt bool
  // or a truncation fails as before, then dropped.
  SLAMPRED_RETURN_NOT_OK(reader.ReadBool().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadI32().status());
  SLAMPRED_RETURN_NOT_OK(reader.ReadU64().status());
  SLAMPRED_READ_INTO(o.max_outer_iterations, reader.ReadI32());
  SLAMPRED_READ_INTO(o.outer_tol, reader.ReadDouble());
  return config;
}

#undef SLAMPRED_READ_INTO

void AppendSection(std::uint32_t id, const std::string& payload,
                   BinaryWriter& writer) {
  writer.WriteU32(id);
  writer.WriteU64(payload.size());
  writer.WriteBytes(payload.data(), payload.size());
  writer.WriteU32(Crc32(payload.data(), payload.size()));
}

// The matrix behind `scores` when it is stored in form M, else null.
template <typename M>
const M* Stored(const ScoreSource* scores) {
  const auto* typed = dynamic_cast<const MatrixScores<M>*>(scores);
  return typed == nullptr ? nullptr : &typed->matrix();
}

// Writes `scores` as a dense matrix payload: the stored matrix of a
// dense source, every row of a form with no section of its own, or
// the empty matrix when there are no scores.
void WriteDense(const ScoreSource* scores, BinaryWriter& writer) {
  if (const Matrix* dense = Stored<Matrix>(scores)) {
    dense->Serialize(writer);
  } else if (scores != nullptr) {
    DenseScoreMatrix(*scores).Serialize(writer);
  } else {
    Matrix().Serialize(writer);
  }
}

// One shard section: its index and member ids, then a quantized block
// (kSectionQuantizedShard) or a flag plus factors or a dense block
// (kSectionShard).
void AppendShard(std::size_t index, const ModelShard& shard,
                 BinaryWriter& writer) {
  BinaryWriter shard_writer;
  shard_writer.WriteU64(index);
  shard_writer.WriteU64(shard.users.size());
  for (const std::uint32_t u : shard.users) shard_writer.WriteU32(u);
  const ScoreSource* block = shard.block.get();
  if (const auto* quantized = Stored<QuantizedSymmetricDense>(block)) {
    quantized->Serialize(shard_writer);
    AppendSection(kSectionQuantizedShard, shard_writer.buffer(), writer);
    return;
  }
  const FactoredMatrix* factors = Stored<FactoredMatrix>(block);
  shard_writer.WriteBool(factors != nullptr);
  if (factors != nullptr) {
    factors->Serialize(shard_writer);
  } else {
    WriteDense(block, shard_writer);
  }
  AppendSection(kSectionShard, shard_writer.buffer(), writer);
}

// The boundary section: quantized (kSectionQuantizedBoundary) or a CSR
// (kSectionBoundary), which is empty when there is no boundary.
void AppendBoundary(const ScoreSource* boundary, BinaryWriter& writer) {
  BinaryWriter boundary_writer;
  if (const auto* quantized = Stored<QuantizedSymmetricCsr>(boundary)) {
    quantized->Serialize(boundary_writer);
    AppendSection(kSectionQuantizedBoundary, boundary_writer.buffer(),
                  writer);
    return;
  }
  if (const CsrMatrix* csr = Stored<CsrMatrix>(boundary)) {
    csr->Serialize(boundary_writer);
  } else if (boundary != nullptr) {
    CsrMatrix::FromDense(DenseScoreMatrix(*boundary))
        .Serialize(boundary_writer);
  } else {
    CsrMatrix().Serialize(boundary_writer);
  }
  AppendSection(kSectionBoundary, boundary_writer.buffer(), writer);
}

// A score payload is square and covers at most kMaxParsedCount users,
// the cap every bundle parser applies: a rank-0 factor pair holds no
// bytes, so nothing else bounds its user count.
template <typename M>
Status CheckScoreShape(const M& matrix, const char* what) {
  if (matrix.rows() != matrix.cols()) {
    return Status::IoError(std::string(what) + " is not square: " +
                           std::to_string(matrix.rows()) + "x" +
                           std::to_string(matrix.cols()));
  }
  if (matrix.rows() > kMaxParsedCount) {
    return Status::IoError(std::string(what) + " covers " +
                           std::to_string(matrix.rows()) +
                           " users, more than the cap of " +
                           std::to_string(kMaxParsedCount));
  }
  return Status::OK();
}

// Parses a shard section payload after its index (see AppendShard).
Result<ModelShard> ReadShard(BinaryReader& reader, bool quantized) {
  ModelShard shard;
  auto count = reader.ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > reader.remaining() / sizeof(std::uint32_t)) {
    return reader.Truncated(
        static_cast<std::size_t>(count.value()) * sizeof(std::uint32_t),
        "shard users");
  }
  shard.users.reserve(static_cast<std::size_t>(count.value()));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto user = reader.ReadU32();
    if (!user.ok()) return user.status();
    shard.users.push_back(user.value());
  }
  if (quantized) {
    auto block = QuantizedSymmetricDense::Deserialize(reader);
    if (!block.ok()) return block.status();
    shard.block =
        std::make_shared<QuantizedBlockScores>(std::move(block).value());
  } else {
    auto factored = reader.ReadBool();
    if (!factored.ok()) return factored.status();
    if (factored.value()) {
      auto factors = FactoredMatrix::Deserialize(reader);
      if (!factors.ok()) return factors.status();
      SLAMPRED_RETURN_NOT_OK(
          CheckScoreShape(factors.value(), "shard factors"));
      shard.block =
          std::make_shared<FactoredScores>(std::move(factors).value());
    } else {
      auto block = Matrix::Deserialize(reader);
      if (!block.ok()) return block.status();
      SLAMPRED_RETURN_NOT_OK(
          CheckScoreShape(block.value(), "shard score block"));
      shard.block = std::make_shared<DenseScores>(std::move(block).value());
    }
  }
  SLAMPRED_RETURN_NOT_OK(shard.Validate());
  return shard;
}

}  // namespace

Result<ModelArtifact> MakeModelArtifact(const SlamPred& model) {
  if (!model.fitted()) {
    return Status::FailedPrecondition(
        "cannot snapshot an artifact before Fit");
  }
  ModelArtifact artifact;
  artifact.config = model.config();
  artifact.scores = model.scores();
  return artifact;
}

std::string SerializeModelArtifact(const ModelArtifact& artifact) {
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kModelArtifactFormatVersion);
  const ScoreSource* scores = artifact.scores.get();
  const auto* sharded = dynamic_cast<const ShardedScores*>(scores);
  // Config, then the scores: one section, or a manifest plus one
  // section per shard plus the boundary.
  std::uint32_t section_count =
      sharded == nullptr
          ? 2u
          : 3u + static_cast<std::uint32_t>(sharded->num_shards());
  if (artifact.has_hot_rows) ++section_count;
  if (artifact.has_adapted_tensors) ++section_count;
  writer.WriteU32(section_count);

  BinaryWriter config_writer;
  SerializeConfig(artifact.config, config_writer);
  AppendSection(kSectionConfig, config_writer.buffer(), writer);

  if (sharded == nullptr) {
    BinaryWriter score_writer;
    if (const auto* quantized = Stored<QuantizedMatrix>(scores)) {
      quantized->Serialize(score_writer);
      AppendSection(kSectionQuantizedScores, score_writer.buffer(), writer);
    } else if (const auto* factors = Stored<FactoredMatrix>(scores)) {
      factors->Serialize(score_writer);
      AppendSection(kSectionLowRankFactors, score_writer.buffer(), writer);
    } else {
      WriteDense(scores, score_writer);
      AppendSection(kSectionScoreMatrix, score_writer.buffer(), writer);
    }
  }

  if (artifact.has_hot_rows) {
    BinaryWriter hot_writer;
    artifact.hot_rows.Serialize(hot_writer);
    AppendSection(kSectionHotCache, hot_writer.buffer(), writer);
  }

  if (artifact.has_adapted_tensors) {
    BinaryWriter tensor_writer;
    tensor_writer.WriteU64(artifact.adapted_tensors.size());
    for (const SparseTensor3& tensor : artifact.adapted_tensors) {
      tensor.Serialize(tensor_writer);
    }
    AppendSection(kSectionAdaptedTensors, tensor_writer.buffer(), writer);
  }

  if (sharded != nullptr) {
    BinaryWriter manifest_writer;
    manifest_writer.WriteU64(sharded->num_users());
    manifest_writer.WriteU64(sharded->num_shards());
    for (const ModelShard& shard : sharded->shards()) {
      manifest_writer.WriteU64(shard.users.size());
      manifest_writer.WriteU32(shard.users.front());
      manifest_writer.WriteU32(shard.users.back());
    }
    AppendSection(kSectionShardManifest, manifest_writer.buffer(), writer);
    for (std::size_t i = 0; i < sharded->num_shards(); ++i) {
      AppendShard(i, sharded->shards()[i], writer);
    }
    AppendBoundary(sharded->boundary().get(), writer);
  }
  return writer.TakeBuffer();
}

Result<ModelArtifact> DeserializeModelArtifact(const std::string& bytes) {
  BinaryReader reader(bytes);
  char magic[sizeof(kMagic)];
  SLAMPRED_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError(
        "bad magic at offset 0: not a SLAMPRED model artifact");
  }
  const std::size_t version_offset = reader.offset();
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kModelArtifactFormatVersion) {
    return Status::IoError(
        "unsupported artifact format version " +
        std::to_string(version.value()) + " at offset " +
        std::to_string(version_offset) + " (this build reads version " +
        std::to_string(kModelArtifactFormatVersion) + ")");
  }
  auto section_count = reader.ReadU32();
  if (!section_count.ok()) return section_count.status();

  ModelArtifact artifact;
  bool have_config = false;
  std::optional<Matrix> dense;
  std::optional<FactoredMatrix> factors;
  std::optional<QuantizedMatrix> quantized;
  bool have_manifest = false;
  bool have_boundary = false;
  std::uint64_t manifest_users = 0;
  std::vector<std::uint64_t> manifest_sizes;
  std::vector<std::pair<std::uint64_t, ModelShard>> loaded_shards;
  std::shared_ptr<const ScoreSource> boundary;
  for (std::uint32_t i = 0; i < section_count.value(); ++i) {
    const std::size_t section_offset = reader.offset();
    auto id = reader.ReadU32();
    if (!id.ok()) return id.status();
    auto payload_size = reader.ReadU64();
    if (!payload_size.ok()) return payload_size.status();
    if (payload_size.value() > reader.remaining()) {
      return reader.Truncated(
          static_cast<std::size_t>(payload_size.value()), "section payload");
    }
    const unsigned char* payload = reader.current();
    const std::size_t size = static_cast<std::size_t>(payload_size.value());
    SLAMPRED_RETURN_NOT_OK(reader.Skip(size));
    const std::size_t crc_offset = reader.offset();
    auto stored_crc = reader.ReadU32();
    if (!stored_crc.ok()) return stored_crc.status();
    const std::uint32_t computed_crc = Crc32(payload, size);
    if (stored_crc.value() != computed_crc) {
      return Status::IoError(
          "checksum mismatch in section " + std::to_string(id.value()) +
          " starting at offset " + std::to_string(section_offset) +
          " (stored crc at offset " + std::to_string(crc_offset) + ")");
    }

    BinaryReader section(payload, size);
    switch (id.value()) {
      case kSectionConfig: {
        auto config = DeserializeConfig(section);
        if (!config.ok()) return config.status();
        artifact.config = std::move(config).value();
        have_config = true;
        break;
      }
      case kSectionScoreMatrix: {
        auto s = Matrix::Deserialize(section);
        if (!s.ok()) return s.status();
        SLAMPRED_RETURN_NOT_OK(
            CheckScoreShape(s.value(), "artifact score matrix"));
        dense = std::move(s).value();
        break;
      }
      case kSectionLowRankFactors: {
        auto low_rank = FactoredMatrix::Deserialize(section);
        if (!low_rank.ok()) return low_rank.status();
        SLAMPRED_RETURN_NOT_OK(
            CheckScoreShape(low_rank.value(), "artifact low-rank factors"));
        factors = std::move(low_rank).value();
        break;
      }
      case kSectionAdaptedTensors: {
        auto count = section.ReadU64();
        if (!count.ok()) return count.status();
        artifact.adapted_tensors.clear();
        for (std::uint64_t k = 0; k < count.value(); ++k) {
          auto tensor = SparseTensor3::Deserialize(section);
          if (!tensor.ok()) return tensor.status();
          artifact.adapted_tensors.push_back(std::move(tensor).value());
        }
        artifact.has_adapted_tensors = true;
        break;
      }
      case kSectionShardManifest: {
        auto users = section.ReadU64();
        if (!users.ok()) return users.status();
        manifest_users = users.value();
        auto shard_count = section.ReadU64();
        if (!shard_count.ok()) return shard_count.status();
        for (std::uint64_t k = 0; k < shard_count.value(); ++k) {
          auto shard_users = section.ReadU64();
          if (!shard_users.ok()) return shard_users.status();
          auto first = section.ReadU32();
          if (!first.ok()) return first.status();
          auto last = section.ReadU32();
          if (!last.ok()) return last.status();
          manifest_sizes.push_back(shard_users.value());
        }
        have_manifest = true;
        break;
      }
      case kSectionShard:
      case kSectionQuantizedShard: {
        auto index = section.ReadU64();
        if (!index.ok()) return index.status();
        auto shard =
            ReadShard(section, id.value() == kSectionQuantizedShard);
        if (!shard.ok()) return shard.status();
        loaded_shards.emplace_back(index.value(), std::move(shard).value());
        break;
      }
      case kSectionBoundary: {
        auto csr = CsrMatrix::Deserialize(section);
        if (!csr.ok()) return csr.status();
        SLAMPRED_RETURN_NOT_OK(
            CheckScoreShape(csr.value(), "boundary matrix"));
        // A quantized boundary wins over a float one.
        if (csr.value().rows() != 0 &&
            (boundary == nullptr || !boundary->quantized())) {
          boundary = std::make_shared<BoundaryScores>(std::move(csr).value());
        }
        have_boundary = true;
        break;
      }
      case kSectionQuantizedScores: {
        auto q = QuantizedMatrix::Deserialize(section);
        if (!q.ok()) return q.status();
        SLAMPRED_RETURN_NOT_OK(q.value().Validate());
        SLAMPRED_RETURN_NOT_OK(
            CheckScoreShape(q.value(), "artifact quantized score matrix"));
        quantized = std::move(q).value();
        break;
      }
      case kSectionQuantizedBoundary: {
        auto q = QuantizedSymmetricCsr::Deserialize(section);
        if (!q.ok()) return q.status();
        if (q.value().rows() != 0) {
          boundary =
              std::make_shared<QuantizedBoundaryScores>(std::move(q).value());
        }
        have_boundary = true;
        break;
      }
      case kSectionHotCache: {
        auto cache = HotRowCache::Deserialize(section);
        if (!cache.ok()) return cache.status();
        artifact.hot_rows = std::move(cache).value();
        artifact.has_hot_rows = true;
        break;
      }
      default:
        // Checksum-verified but unknown: skip (additive growth within a
        // format version stays readable).
        break;
    }
  }
  // A stream may carry several score payloads; the first present of
  // shards, quantized scores, a non-empty dense S and factors is served.
  if (have_manifest || !loaded_shards.empty()) {
    if (!have_manifest) {
      return Status::IoError(
          "sharded artifact carries shard sections but no manifest");
    }
    if (loaded_shards.size() != manifest_sizes.size()) {
      return Status::IoError(
          "sharded artifact manifest names " +
          std::to_string(manifest_sizes.size()) + " shards but " +
          std::to_string(loaded_shards.size()) + " shard sections follow");
    }
    std::sort(loaded_shards.begin(), loaded_shards.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<ModelShard> shards;
    shards.reserve(loaded_shards.size());
    std::uint64_t covered_users = 0;
    for (std::size_t k = 0; k < loaded_shards.size(); ++k) {
      if (loaded_shards[k].first != k) {
        return Status::IoError("sharded artifact shard index " +
                               std::to_string(k) + " is missing");
      }
      if (loaded_shards[k].second.users.size() != manifest_sizes[k]) {
        return Status::IoError(
            "shard " + std::to_string(k) + " covers " +
            std::to_string(loaded_shards[k].second.users.size()) +
            " users but the manifest promises " +
            std::to_string(manifest_sizes[k]));
      }
      covered_users += manifest_sizes[k];
      shards.push_back(std::move(loaded_shards[k].second));
    }
    // Bounded by the parsed shards before anything is sized by it.
    if (manifest_users != covered_users) {
      return Status::IoError("sharded artifact manifest names " +
                             std::to_string(manifest_users) +
                             " users but its shards cover " +
                             std::to_string(covered_users));
    }
    if (!have_boundary) {
      return Status::IoError("sharded artifact is missing its boundary "
                             "section");
    }
    auto sharded =
        ShardedScores::Create(std::move(shards), std::move(boundary),
                              static_cast<std::size_t>(manifest_users));
    if (!sharded.ok()) {
      return Status::IoError("sharded artifact is inconsistent: " +
                             sharded.status().message());
    }
    artifact.scores = std::move(sharded).value();
  } else if (quantized.has_value()) {
    artifact.scores = std::make_shared<QuantizedScores>(std::move(*quantized));
  } else if (dense.has_value() && (!dense->empty() || !factors.has_value())) {
    artifact.scores = std::make_shared<DenseScores>(std::move(*dense));
  } else if (factors.has_value()) {
    artifact.scores = std::make_shared<FactoredScores>(std::move(*factors));
  }
  if (!have_config || artifact.scores == nullptr) {
    return Status::IoError(
        "artifact is missing a required section (config and a score "
        "matrix — dense, low-rank factors, quantized scores, or shards — "
        "are mandatory)");
  }
  // The serialized config predates the factored backend and the
  // partitioner (their fields are not part of the fixed layout), so both
  // are inferred from the sections present — a low-rank section marks
  // the fit factored; a sharded one marks it partitioned.
  if (factors.has_value()) {
    artifact.config.solver_backend = SolverBackend::kFactored;
  }
  if (have_manifest) artifact.config.partition.mode = PartitionMode::kAuto;
  return artifact;
}

Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path) {
  return WriteStringToFile(SerializeModelArtifact(artifact), path);
}

std::string LastGoodArtifactPath(const std::string& path) {
  return path + ".last_good";
}

Status WriteArtifactAtomic(const ModelArtifact& artifact,
                           const std::string& path) {
  const std::string bytes = SerializeModelArtifact(artifact);
  SLAMPRED_RETURN_NOT_OK(WriteFileAtomic(bytes, path));
  return WriteFileAtomic(bytes, LastGoodArtifactPath(path));
}

Result<ModelArtifact> LoadModelArtifact(const std::string& path) {
  SLAMPRED_RETURN_NOT_OK(
      InjectedFaultStatus("artifact.read", "artifact read: "));
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  auto artifact = DeserializeModelArtifact(bytes.value());
  if (!artifact.ok()) {
    return Status(artifact.status().code(),
                  path + ": " + artifact.status().message());
  }
  return artifact;
}

}  // namespace slampred
