// Versioned binary model artifact — the train-once / serve-many
// boundary. A fitted SlamPred exports an artifact (config + predictor
// S in any ScoreSource form); ScoringSession loads it back and serves
// scores with no refit. Scores from a loaded artifact are bit-identical
// to the in-memory model: S round-trips through exact IEEE-754 bit
// patterns.
//
// On-disk format (little-endian; see DESIGN.md "Fit pipeline and model
// artifacts" for the full table):
//
//   offset 0   8-byte magic "SLPMODEL"
//   offset 8   u32 format version (kModelArtifactFormatVersion)
//   offset 12  u32 section count
//   then per section:
//     u32 section id · u64 payload bytes · payload · u32 CRC-32(payload)
//
// Loading is strict: bad magic, an unsupported version, a truncated
// payload or a checksum mismatch all return an offset-diagnosed
// kIoError Status — never a crash — and unknown section ids are
// skipped (their checksums still verified) so minor additive format
// growth stays readable.

#ifndef SLAMPRED_CORE_MODEL_ARTIFACT_H_
#define SLAMPRED_CORE_MODEL_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hot_row_cache.h"
#include "core/score_source.h"
#include "core/slampred.h"
#include "linalg/sparse_tensor3.h"
#include "util/status.h"

namespace slampred {

/// Bumped on any incompatible layout change; readers reject other
/// versions with a diagnosed error rather than guessing.
inline constexpr std::uint32_t kModelArtifactFormatVersion = 1;

/// The serializable outcome of one fit.
struct ModelArtifact {
  /// Full model configuration the fit ran with (the -T/-H variant, the
  /// regularization weights, the solver settings — everything needed to
  /// reproduce or identify the model).
  SlamPredConfig config;
  /// The fitted predictor S, shared with the model or artifact it was
  /// copied from. Its form picks the score sections written: a dense
  /// matrix, U·Vᵀ factors, quantized codes, or a sharded manifest plus
  /// one section per shard and the boundary. Each is a checksummed
  /// section that readers predating it skip, failing cleanly on the
  /// missing score matrix.
  std::shared_ptr<const ScoreSource> scores;
  /// Feature tensors carried by older artifacts (section 3). A fit no
  /// longer produces them, but the codec still reads, validates and
  /// re-writes them, so such files round-trip byte for byte.
  std::vector<SparseTensor3> adapted_tensors;
  bool has_adapted_tensors = false;
  /// Precomputed top-K row prefixes for the hot-user set, snapshotted
  /// from the FLOAT scores before quantization dropped them, so serving
  /// a hot user is bit-equal to a float session's lazily-built order.
  HotRowCache hot_rows;
  bool has_hot_rows = false;
};

/// Snapshots a fitted model into an artifact. Fails with
/// kFailedPrecondition before Fit.
Result<ModelArtifact> MakeModelArtifact(const SlamPred& model);

/// Serializes `artifact` to its binary form.
std::string SerializeModelArtifact(const ModelArtifact& artifact);

/// Parses an artifact from its binary form; every failure is an
/// offset-diagnosed Status.
Result<ModelArtifact> DeserializeModelArtifact(const std::string& bytes);

/// Writes `artifact` to `path` (kIoError on filesystem failure).
Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path);

/// The `last_good` sidecar path of a published artifact: the previous
/// fully-verified copy WriteArtifactAtomic keeps beside `path` so a
/// loader can roll back when `path` is torn or corrupt.
std::string LastGoodArtifactPath(const std::string& path);

/// Crash-safe artifact publication: serializes once, writes `path` via
/// WriteFileAtomic (tmp + fsync + rename, so a kill mid-write can never
/// leave a torn artifact at the published path), then refreshes the
/// LastGoodArtifactPath sidecar with the same verified bytes. A failure
/// while refreshing the sidecar does not un-publish `path`.
Status WriteArtifactAtomic(const ModelArtifact& artifact,
                           const std::string& path);

/// Reads and parses an artifact file. Honors the "artifact.read" fault
/// site. Corrupt / truncated / wrong-version files are rejected with a
/// diagnosed Status.
Result<ModelArtifact> LoadModelArtifact(const std::string& path);

}  // namespace slampred

#endif  // SLAMPRED_CORE_MODEL_ARTIFACT_H_
