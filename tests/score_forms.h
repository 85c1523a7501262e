// Test helpers that look behind a ScoreSource: which form a fit, a load
// or a quantization produced, and the stored matrix of that form.

#ifndef SLAMPRED_TESTS_SCORE_FORMS_H_
#define SLAMPRED_TESTS_SCORE_FORMS_H_

#include <memory>

#include "core/score_shards.h"
#include "core/score_source.h"

namespace slampred {

/// The matrix behind `scores` when it is stored in form M (Matrix,
/// FactoredMatrix, QuantizedMatrix, ...), else null.
template <typename M>
const M* StoredAs(const std::shared_ptr<const ScoreSource>& scores) {
  const auto* typed = dynamic_cast<const MatrixScores<M>*>(scores.get());
  return typed == nullptr ? nullptr : &typed->matrix();
}

/// The sharded composite behind `scores`, else null.
inline const ShardedScores* ShardedOf(
    const std::shared_ptr<const ScoreSource>& scores) {
  return dynamic_cast<const ShardedScores*>(scores.get());
}

}  // namespace slampred

#endif  // SLAMPRED_TESTS_SCORE_FORMS_H_
