// Artifact quantizer — the float→quantized transform behind
// `slampred_cli quantize` and `fit --quantize` (DESIGN.md §15). Takes a
// fitted float artifact and rewrites its score payload as per-row
// affine u8/u16 codes (ScoreSource::Quantize): a dense or
// factored-densified matrix becomes one QuantizedMatrix section, a
// sharded model gets one QuantizedSymmetricDense block per cluster plus
// a QuantizedSymmetricCsr boundary. Before the float payload is dropped,
// the top-K rows of a configurable hot-user set are snapshotted from
// the FLOAT scores into the artifact's HotRowCache, so serving a hot
// user from the quantized artifact is bit-equal to a float session's
// lazily-built order — the cached tier never touches the quantized
// payload.

#ifndef SLAMPRED_SERVE_ARTIFACT_QUANTIZER_H_
#define SLAMPRED_SERVE_ARTIFACT_QUANTIZER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model_artifact.h"
#include "linalg/quantized_matrix.h"
#include "util/status.h"

namespace slampred {

/// Quantization knobs.
struct ArtifactQuantizerOptions {
  /// Code width of every quantized section.
  QuantizationBits bits = QuantizationBits::kU8;
  /// Snapshot hot rows for the first `hot_user_count` user ids (ignored
  /// when `hot_user_ids` names an explicit set).
  std::size_t hot_user_count = 0;
  /// Explicit hot-user set; out-of-range ids are skipped.
  std::vector<std::uint32_t> hot_user_ids;
  /// Entries kept per hot row (the served prefix). A row whose full
  /// order fits is marked complete and can answer any k.
  std::size_t hot_row_entries = 256;
};

/// Byte accounting of one quantization run (exact serialized sizes, the
/// numbers fit_report/--stats-json and BENCH_serve.json report).
struct ArtifactQuantizeReport {
  QuantizationBits bits = QuantizationBits::kU8;
  /// Serialized bytes of the input float artifact.
  std::uint64_t float_bytes = 0;
  /// Serialized bytes of the quantized artifact (hot cache included).
  std::uint64_t quantized_bytes = 0;
  /// Hot rows snapshotted into the artifact.
  std::size_t hot_rows = 0;

  /// float_bytes / quantized_bytes (0 before a run).
  double shrink() const {
    return quantized_bytes == 0
               ? 0.0
               : static_cast<double>(float_bytes) /
                     static_cast<double>(quantized_bytes);
  }
};

/// Rewrites `artifact`'s score payload in the quantized form selected
/// by `options` and returns the new artifact. The input must be
/// servable (ScoringSession::FromArtifact accepts it) and not already
/// quantized. Factored artifacts are densified row by row before
/// quantization — an O(n²) transient, so quantize factored models at
/// fit scale, not serve scale; sharded ones never materialise anything
/// n²-sized. Config and adapted tensors carry over unchanged. When
/// `report` is non-null it is filled with exact serialized byte counts
/// of both forms.
Result<ModelArtifact> QuantizeModelArtifact(
    ModelArtifact artifact, const ArtifactQuantizerOptions& options,
    ArtifactQuantizeReport* report = nullptr);

}  // namespace slampred

#endif  // SLAMPRED_SERVE_ARTIFACT_QUANTIZER_H_
