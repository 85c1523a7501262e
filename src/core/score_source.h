// ScoreSource — the one read interface over a fitted predictor S.
//
// The paper estimates one matrix S (Algorithm 1). This library stores
// it in several forms: dense, factored U·Vᵀ, u8/u16 quantized codes,
// and a sharded composite (core/score_shards.h) whose per-cluster
// blocks and boundary overlay are themselves sources. Every holder of
// scores — SlamPred, FitContext, ModelArtifact, ScoringSession — keeps
// one std::shared_ptr<const ScoreSource>, so copies share the scores,
// and every reader calls the source instead of branching on its form.
// Sources are immutable once built, so one instance serves any number
// of threads. Apart from the sources themselves, only the artifact
// codec (core/model_artifact.cc) asks which form a source has.

#ifndef SLAMPRED_CORE_SCORE_SOURCE_H_
#define SLAMPRED_CORE_SCORE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/factored_matrix.h"
#include "linalg/matrix.h"
#include "linalg/quantized_matrix.h"
#include "util/status.h"

namespace slampred {

/// Every column of one score row except the row's own user, by score
/// descending and column ascending on ties — the top-K serve order.
using TopKRowOrder = std::vector<std::uint32_t>;

/// Read-only square score matrix over users [0, num_users()).
class ScoreSource {
 public:
  virtual ~ScoreSource() = default;

  /// Order n of the square score matrix.
  virtual std::size_t num_users() const = 0;

  /// Score of (u, v); unchecked — callers bounds-check against
  /// num_users().
  virtual double At(std::size_t u, std::size_t v) const = 0;

  /// Fills `out` (resized to num_users) with row u; out[v] equals
  /// At(u, v) bit for bit.
  virtual void RowInto(std::size_t u, std::vector<double>& out) const = 0;

  /// The serve order of row u. The default argsorts RowInto.
  virtual TopKRowOrder RowOrder(std::size_t u) const;

  /// Heap bytes held.
  virtual std::size_t EstimatedBytes() const = 0;

  /// True when any part of the scores is dequantized codes.
  virtual bool quantized() const = 0;

  /// One-line description of the form, e.g. "factored, rank 8".
  virtual std::string Describe() const = 0;

  /// This source with its scores re-encoded as per-row affine `bits`
  /// codes. The default densifies row by row (an O(n²) transient) into
  /// one quantized matrix.
  virtual Result<std::shared_ptr<const ScoreSource>> Quantize(
      QuantizationBits bits) const;

 protected:
  ScoreSource() = default;
  ScoreSource(const ScoreSource&) = default;
  ScoreSource& operator=(const ScoreSource&) = default;
  ScoreSource(ScoreSource&&) = default;
  ScoreSource& operator=(ScoreSource&&) = default;
};

/// A source over one stored square matrix; see the aliases below.
template <typename M>
class MatrixScores final : public ScoreSource {
 public:
  explicit MatrixScores(M matrix) : matrix_(std::move(matrix)) {}

  const M& matrix() const { return matrix_; }

  std::size_t num_users() const override { return matrix_.rows(); }
  double At(std::size_t u, std::size_t v) const override;
  void RowInto(std::size_t u, std::vector<double>& out) const override;
  std::size_t EstimatedBytes() const override;
  bool quantized() const override;
  std::string Describe() const override;
  Result<std::shared_ptr<const ScoreSource>> Quantize(
      QuantizationBits bits) const override;

 private:
  M matrix_;
};

/// The dense n×n S of a dense-backend fit.
using DenseScores = MatrixScores<Matrix>;
/// S = U·Vᵀ of a factored-backend fit, scored without densifying.
using FactoredScores = MatrixScores<FactoredMatrix>;
/// Per-row quantized S of a quantized unsharded artifact.
using QuantizedScores = MatrixScores<QuantizedMatrix>;
/// A quantized shard block (canonical upper triangle).
using QuantizedBlockScores = MatrixScores<QuantizedSymmetricDense>;
/// The boundary-refinement CSR of a sharded model (0 where unstored).
using BoundaryScores = MatrixScores<CsrMatrix>;
/// The quantized boundary of a quantized sharded artifact.
using QuantizedBoundaryScores = MatrixScores<QuantizedSymmetricCsr>;

extern template class MatrixScores<Matrix>;
extern template class MatrixScores<FactoredMatrix>;
extern template class MatrixScores<QuantizedMatrix>;
extern template class MatrixScores<QuantizedSymmetricDense>;
extern template class MatrixScores<CsrMatrix>;
extern template class MatrixScores<QuantizedSymmetricCsr>;

/// Copies every row of `scores` into one dense matrix (O(n²) memory).
Matrix DenseScoreMatrix(const ScoreSource& scores);

/// kOutOfRange naming the first pair with an id >= num_users, as
/// "pair i = (u, v) outside the <matrix> score matrix (n users)";
/// OK when every pair is in range.
Status CheckPairsInRange(const std::vector<UserPair>& pairs,
                         std::size_t num_users,
                         const char* matrix = "served");

}  // namespace slampred

#endif  // SLAMPRED_CORE_SCORE_SOURCE_H_
