// Property tests for per-user top-K retrieval: TopK(u, k) must equal a
// sort-based reference for every user and the edge values of k,
// known-link exclusion must mask exactly the CSR adjacency row of u, and
// LRU eviction in the row cache may change timing but never results.

#include "serve/topk_index.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_artifact.h"
#include "core/scoring_service.h"
#include "core/score_shards.h"
#include "core/scoring_session.h"
#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/quantized_matrix.h"
#include "util/random.h"

namespace slampred {
namespace {

Matrix RandomScores(std::size_t n, std::uint64_t seed) {
  Matrix s(n, n);
  Rng rng(seed);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      // Coarse buckets so duplicate scores (ties) actually occur.
      s(u, v) = static_cast<double>(rng.NextBounded(16));
    }
  }
  return s;
}

ModelArtifact ArtifactFromScores(const Matrix& s) {
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(s);
  return artifact;
}

ScoringSession SessionFromScores(const Matrix& s) {
  return ScoringSession::FromArtifact(ArtifactFromScores(s)).value();
}

SocialGraph RandomGraph(std::size_t n, std::uint64_t seed) {
  SocialGraph graph(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < 3 * n; ++i) {
    const std::size_t u = rng.NextBounded(n);
    const std::size_t v = rng.NextBounded(n);
    if (u != v) (void)graph.AddEdge(u, v);
  }
  return graph;
}

// The independent reference: full sort, descending score, ascending
// column on ties, u itself excluded, then optional known-link masking.
std::vector<TopKEntry> ReferenceTopK(const Matrix& s, std::size_t u,
                                     std::size_t k,
                                     const SocialGraph* exclude) {
  std::vector<TopKEntry> all;
  for (std::size_t v = 0; v < s.cols(); ++v) {
    if (v == u) continue;
    if (exclude != nullptr && exclude->HasEdge(u, v)) continue;
    all.push_back({v, s(u, v)});
  }
  std::sort(all.begin(), all.end(), [](const TopKEntry& a,
                                       const TopKEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.v < b.v;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameEntries(const std::vector<TopKEntry>& got,
                       const std::vector<TopKEntry>& expected,
                       const std::string& context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].v, expected[i].v) << context << " rank " << i;
    EXPECT_EQ(got[i].score, expected[i].score) << context << " rank " << i;
  }
}

TEST(TopKTest, MatchesSortReferenceForAllUsersAndEdgeKs) {
  const std::size_t n = 23;
  const Matrix s = RandomScores(n, 11);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(s)).ok());
  ScoringService service(&registry);

  for (std::size_t u = 0; u < n; ++u) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, n - 1, n}) {
      auto got = service.TopK(u, k, false);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const auto expected = ReferenceTopK(s, u, k, nullptr);
      ExpectSameEntries(got.value().entries, expected,
                        "u=" + std::to_string(u) +
                            " k=" + std::to_string(k));
      // k can never return more than the n-1 other users.
      EXPECT_LE(got.value().entries.size(), n - 1);
    }
  }
}

TEST(TopKTest, TiesBreakByAscendingColumn) {
  const std::size_t n = 9;
  Matrix s(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) s(u, v) = 1.0;
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(s)).ok());
  ScoringService service(&registry);

  for (std::size_t u = 0; u < n; ++u) {
    auto got = service.TopK(u, n, false);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().entries.size(), n - 1);
    // All-equal scores: the order is every other column, ascending.
    std::size_t expected_v = 0;
    for (const TopKEntry& entry : got.value().entries) {
      if (expected_v == u) ++expected_v;
      EXPECT_EQ(entry.v, expected_v);
      ++expected_v;
    }
  }
}

TEST(TopKTest, ExclusionMasksExactlyTheAdjacencyRow) {
  const std::size_t n = 21;
  const Matrix s = RandomScores(n, 29);
  const SocialGraph graph = RandomGraph(n, 31);
  const CsrMatrix adjacency = graph.AdjacencyCsr();
  ASSERT_GT(graph.num_edges(), 0u);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(s), adjacency).ok());
  ScoringService service(&registry);

  for (std::size_t u = 0; u < n; ++u) {
    auto masked = service.TopK(u, n, true);
    auto unmasked = service.TopK(u, n, false);
    ASSERT_TRUE(masked.ok() && unmasked.ok());

    // Exactly deg(u) candidates disappear — no more, no fewer.
    ASSERT_EQ(masked.value().entries.size(), n - 1 - graph.Degree(u));
    ASSERT_EQ(unmasked.value().entries.size(), n - 1);

    std::set<std::size_t> returned;
    for (const TopKEntry& entry : masked.value().entries) {
      returned.insert(entry.v);
      EXPECT_FALSE(graph.HasEdge(u, entry.v))
          << "known link (" << u << ", " << entry.v << ") returned";
    }
    for (const std::size_t neighbor : graph.Neighbors(u)) {
      EXPECT_EQ(returned.count(neighbor), 0u);
    }
    // And the masked list is the reference list under the same mask.
    ExpectSameEntries(masked.value().entries,
                      ReferenceTopK(s, u, n, &graph),
                      "masked u=" + std::to_string(u));
  }
}

TEST(TopKTest, ExclusionWithoutKnownLinksIsANoOp) {
  const std::size_t n = 12;
  const Matrix s = RandomScores(n, 5);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(s)).ok());
  ScoringService service(&registry);
  for (std::size_t u = 0; u < n; ++u) {
    auto with = service.TopK(u, n, true);
    auto without = service.TopK(u, n, false);
    ASSERT_TRUE(with.ok() && without.ok());
    ExpectSameEntries(with.value().entries, without.value().entries,
                      "u=" + std::to_string(u));
  }
}

TEST(TopKTest, LruEvictionNeverChangesResults) {
  const std::size_t n = 17;
  const Matrix s = RandomScores(n, 43);
  ModelRegistryOptions options;
  options.max_resident_topk_rows = 2;  // Force constant eviction.
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(s)).ok());
  ScoringService service(&registry);

  // Two full passes: the second pass re-queries rows long since evicted.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t u = 0; u < n; ++u) {
      auto got = service.TopK(u, 6, false);
      ASSERT_TRUE(got.ok());
      ExpectSameEntries(got.value().entries,
                        ReferenceTopK(s, u, 6, nullptr),
                        "pass " + std::to_string(pass) +
                            " u=" + std::to_string(u));
    }
  }

  const TopKIndex& index = registry.Acquire()->topk;
  EXPECT_LE(index.resident_rows(), 2u);
  EXPECT_GT(index.evictions(), 0u);
  // Every row was rebuilt at least once after eviction.
  EXPECT_GE(index.builds(), n + 1);
}

TEST(TopKTest, RowOrdersAreBuiltLazilyAndCached) {
  const std::size_t n = 8;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ArtifactFromScores(RandomScores(n, 3))).ok());
  ScoringService service(&registry);

  const TopKIndex& index = registry.Acquire()->topk;
  EXPECT_EQ(index.builds(), 0u);  // Nothing built before the first query.
  ASSERT_TRUE(service.TopK(4, 3, false).ok());
  EXPECT_EQ(index.builds(), 1u);
  ASSERT_TRUE(service.TopK(4, 5, false).ok());  // Same row, cache hit.
  EXPECT_EQ(index.builds(), 1u);
  ASSERT_TRUE(service.TopK(5, 3, false).ok());
  EXPECT_EQ(index.builds(), 2u);
  EXPECT_EQ(index.resident_rows(), 2u);
}

TEST(TopKTest, HeldRowSurvivesEvictionUnchanged) {
  const std::size_t n = 10;
  const ScoringSession session = SessionFromScores(RandomScores(n, 77));
  TopKIndex index(/*max_resident_rows=*/1);

  const std::shared_ptr<const TopKRowOrder> held = index.Row(session, 0);
  const TopKRowOrder copy = *held;
  // Thrash the one-slot cache until row 0 is long gone.
  for (std::size_t u = 1; u < n; ++u) (void)index.Row(session, u);
  EXPECT_GT(index.evictions(), 0u);

  // The handed-out row is immutable and still valid.
  EXPECT_EQ(*held, copy);
  // A rebuilt row 0 is bit-identical to the evicted one.
  EXPECT_EQ(*index.Row(session, 0), copy);
}

TEST(TopKTest, BuildOrderExcludesSelfAndCoversEveryOtherColumn) {
  const std::size_t n = 15;
  const Matrix s = RandomScores(n, 101);
  const ScoringSession session = SessionFromScores(s);
  for (std::size_t u = 0; u < n; ++u) {
    const TopKRowOrder order = BuildTopKRowOrder(session, u);
    ASSERT_EQ(order.size(), n - 1);
    std::set<std::uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), n - 1);
    EXPECT_EQ(seen.count(static_cast<std::uint32_t>(u)), 0u);
    for (std::size_t i = 1; i < order.size(); ++i) {
      const double prev = s(u, order[i - 1]);
      const double cur = s(u, order[i]);
      EXPECT_TRUE(prev > cur || (prev == cur && order[i - 1] < order[i]))
          << "u=" << u << " position " << i;
    }
  }
}

// Every ScoreSource form must read the same row through RowInto as
// through At, and order it exactly like the sort reference — including
// the sharded composite's merge over float and quantized boundaries,
// with ties, zeros and negative scores present.
TEST(TopKTest, EveryScoreFormOrdersRowsLikeTheSortReference) {
  const std::size_t n = 12;
  Matrix symmetric = RandomScores(n, 55);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < u; ++v) symmetric(u, v) = symmetric(v, u);
  }
  Matrix dense = RandomScores(n, 57);
  Matrix u_factor(n, 2);
  Matrix v_factor(n, 2);
  Matrix boundary(n, n);
  Rng rng(59);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      u_factor(i, c) = static_cast<double>(rng.NextBounded(5)) - 2.0;
      v_factor(i, c) = static_cast<double>(rng.NextBounded(5)) - 2.0;
    }
    for (std::size_t j = 0; j < n; ++j) dense(i, j) -= 7.0;
  }
  // Two shards, users [0, 5) and [5, 12); the boundary covers some
  // cross pairs with positive and negative scores.
  for (std::size_t u = 0; u < 5; ++u) {
    for (std::size_t v = 5; v < n; v += 1 + u % 3) {
      boundary(u, v) = boundary(v, u) =
          static_cast<double>(rng.NextBounded(9)) - 4.0;
    }
  }
  const CsrMatrix boundary_csr = CsrMatrix::FromDense(boundary);
  auto block = [&](std::size_t begin, std::size_t end) {
    ModelShard shard;
    Matrix scores(end - begin, end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      shard.users.push_back(static_cast<std::uint32_t>(i));
      for (std::size_t j = begin; j < end; ++j) {
        scores(i - begin, j - begin) = symmetric(i, j);
      }
    }
    shard.block = std::make_shared<DenseScores>(std::move(scores));
    return shard;
  };
  auto sharded = ShardedScores::Create(
      {block(0, 5), block(5, n)},
      std::make_shared<BoundaryScores>(boundary_csr), n);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto quantized_sharded = sharded.value()->Quantize(QuantizationBits::kU8);
  ASSERT_TRUE(quantized_sharded.ok());

  const std::vector<std::pair<const char*, std::shared_ptr<const ScoreSource>>>
      sources = {
          {"dense", std::make_shared<DenseScores>(dense)},
          {"factored", std::make_shared<FactoredScores>(
                           FactoredMatrix(u_factor, v_factor))},
          {"quantized", std::make_shared<QuantizedScores>(
                            QuantizedMatrix::FromMatrix(dense,
                                                        QuantizationBits::kU8)
                                .value())},
          {"quantized block",
           std::make_shared<QuantizedBlockScores>(
               QuantizedSymmetricDense::FromMatrix(symmetric,
                                                   QuantizationBits::kU16)
                   .value())},
          {"boundary", std::make_shared<BoundaryScores>(boundary_csr)},
          {"quantized boundary",
           std::make_shared<QuantizedBoundaryScores>(
               QuantizedSymmetricCsr::FromCsr(boundary_csr,
                                              QuantizationBits::kU16)
                   .value())},
          {"sharded", sharded.value()},
          {"quantized sharded", quantized_sharded.value()},
      };
  for (const auto& [form, source] : sources) {
    ASSERT_EQ(source->num_users(), n) << form;
    std::vector<double> row;
    for (std::size_t u = 0; u < n; ++u) {
      source->RowInto(u, row);
      ASSERT_EQ(row.size(), n) << form;
      Matrix row_matrix(n, n);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(row[v], source->At(u, v)) << form << " (" << u << ", " << v
                                            << ")";
        row_matrix(u, v) = row[v];
      }
      const std::vector<TopKEntry> expected =
          ReferenceTopK(row_matrix, u, n, nullptr);
      const TopKRowOrder order = source->RowOrder(u);
      ASSERT_EQ(order.size(), expected.size()) << form;
      for (std::size_t r = 0; r < order.size(); ++r) {
        EXPECT_EQ(order[r], expected[r].v) << form << " row " << u
                                           << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace slampred
