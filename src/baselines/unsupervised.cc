#include "baselines/unsupervised.h"

#include "util/thread_pool.h"

namespace slampred {

namespace {

// Pairs are scored independently into a pre-sized vector: each index
// has exactly one writing chunk, so the parallel sweep is bit-identical
// to the serial one.
constexpr std::size_t kScoreWorkPerPair = 64;

std::size_t RowDegree(const CsrMatrix& a, std::size_t u) {
  return a.row_ptr()[u + 1] - a.row_ptr()[u];
}

}  // namespace

Result<std::vector<double>> PaPredictor::ScorePairs(
    const std::vector<UserPair>& pairs) const {
  std::vector<double> scores(pairs.size(), 0.0);
  ParallelFor(0, pairs.size(), GrainForWork(kScoreWorkPerPair),
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const UserPair& p = pairs[i];
                  scores[i] =
                      static_cast<double>(RowDegree(adjacency_, p.u)) *
                      static_cast<double>(RowDegree(adjacency_, p.v));
                }
              });
  return scores;
}

Result<std::vector<double>> CnPredictor::ScorePairs(
    const std::vector<UserPair>& pairs) const {
  std::vector<double> scores(pairs.size(), 0.0);
  ParallelFor(0, pairs.size(), GrainForWork(kScoreWorkPerPair),
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const UserPair& p = pairs[i];
                  scores[i] = static_cast<double>(
                      adjacency_.RowIntersectionCount(p.u, p.v));
                }
              });
  return scores;
}

Result<std::vector<double>> JcPredictor::ScorePairs(
    const std::vector<UserPair>& pairs) const {
  std::vector<double> scores(pairs.size(), 0.0);
  ParallelFor(0, pairs.size(), GrainForWork(kScoreWorkPerPair),
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const UserPair& p = pairs[i];
                  const std::size_t inter =
                      adjacency_.RowIntersectionCount(p.u, p.v);
                  const std::size_t uni = RowDegree(adjacency_, p.u) +
                                          RowDegree(adjacency_, p.v) - inter;
                  scores[i] = uni > 0
                                  ? static_cast<double>(inter) /
                                        static_cast<double>(uni)
                                  : 0.0;
                }
              });
  return scores;
}

}  // namespace slampred
