// Serving-side contract of the quantized artifacts and the precomputed
// hot-user cache (DESIGN.md §15), verified against the float oracle:
//
//   * a quantized session serves through Score/ScorePairs/TopK with the
//     kQuantized backend, bit-consistent with its own dequantized
//     payload;
//   * the quantized top-K order never reorders pairs whose float scores
//     differ by more than one code step, and breaks exact float ties
//     identically (ascending v);
//   * known-link exclusion holds on the quantized path;
//   * every precomputed hot row is bit-equal — candidates AND scores —
//     to the order a float session lazily builds, is served as tier
//     `cached` without touching the quantized payload, and falls back
//     to the full path when its prefix cannot cover a request;
//   * hot-swapping between float and quantized artifacts under load
//     always answers from a consistent snapshot of the version it
//     reports.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "serve/artifact_quantizer.h"
#include "serve/model_registry.h"
#include "serve/scoring_kernels.h"
#include "serve/topk_index.h"
#include "score_forms.h"

namespace slampred {
namespace {

std::uint64_t NextRandom(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// A dense float artifact with an n×n random score matrix. Some exact
// ties are planted (every row repeats its first score at column n−1)
// so tie-breaking is actually exercised.
ModelArtifact DenseArtifact(std::size_t n, std::uint64_t seed) {
  Matrix s(n, n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) =
          -1.0 + 2.0 * static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
    }
    s(i, n - 1) = s(i, 0);  // Planted exact tie.
  }
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(std::move(s));
  return artifact;
}

// A sharded float artifact: two symmetric dense blocks plus a
// symmetric cross-shard boundary CSR.
ModelArtifact ShardedArtifact(std::size_t n, std::uint64_t seed) {
  const std::size_t half = n / 2;
  std::uint64_t state = seed;
  auto random_symmetric = [&](std::size_t m) {
    Matrix block(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i; j < m; ++j) {
        const double v =
            static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
        block(i, j) = v;
        block(j, i) = v;
      }
    }
    return block;
  };
  std::vector<ModelShard> shards(2);
  for (std::size_t c = 0; c < 2; ++c) {
    const std::size_t begin = c * half;
    const std::size_t size = c == 0 ? half : n - half;
    for (std::size_t i = 0; i < size; ++i) {
      shards[c].users.push_back(static_cast<std::uint32_t>(begin + i));
    }
    shards[c].block = std::make_shared<DenseScores>(random_symmetric(size));
  }
  Matrix boundary(n, n);
  for (std::size_t u = 0; u < half; ++u) {
    for (std::size_t v = half; v < n; ++v) {
      if (NextRandom(state) % 3 == 0) {
        const double score =
            static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
        boundary(u, v) = score;
        boundary(v, u) = score;
      }
    }
  }
  ModelArtifact artifact;
  auto sharded = ShardedScores::Create(
      std::move(shards),
      std::make_shared<BoundaryScores>(CsrMatrix::FromDense(boundary)), n);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  artifact.scores = std::move(sharded).value();
  return artifact;
}

Result<ModelArtifact> Quantize(const ModelArtifact& artifact,
                               const ArtifactQuantizerOptions& options) {
  ModelArtifact copy = DeserializeModelArtifact(
                           SerializeModelArtifact(artifact))
                           .value();
  return QuantizeModelArtifact(std::move(copy), options);
}

TEST(QuantizedServingTest, QuantizedBackendServesConsistently) {
  const ModelArtifact float_artifact = DenseArtifact(16, 3);
  ArtifactQuantizerOptions options;
  options.bits = QuantizationBits::kU16;
  auto quantized = Quantize(float_artifact, options);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  auto session = ScoringSession::FromArtifact(std::move(quantized).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const QuantizedMatrix* stored =
      StoredAs<QuantizedMatrix>(session.value().artifact().scores);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(session.value().scores().quantized());
  EXPECT_EQ(session.value().num_users(), 16u);

  // Score, ScorePairs and RowScores all read the same dequantization.
  const QuantizedMatrix& q = *stored;
  std::vector<UserPair> pairs;
  std::vector<double> row;
  for (std::size_t u = 0; u < 16; ++u) {
    session.value().RowScores(u, row);
    for (std::size_t v = 0; v < 16; ++v) {
      EXPECT_EQ(session.value().Score(u, v).value(), q.At(u, v));
      EXPECT_EQ(row[v], q.At(u, v));
      pairs.push_back({u, v});
    }
  }
  auto scores = session.value().ScorePairs(pairs);
  ASSERT_TRUE(scores.ok());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(scores.value()[p], q.At(pairs[p].u, pairs[p].v));
  }
}

TEST(QuantizedServingTest, TopKOrderDisplacementBoundedByOneCodeStep) {
  const std::size_t n = 32;
  const ModelArtifact float_artifact = DenseArtifact(n, 7);
  auto float_session = ScoringSession::FromArtifact(
      DeserializeModelArtifact(SerializeModelArtifact(float_artifact))
          .value());
  ASSERT_TRUE(float_session.ok());
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    ArtifactQuantizerOptions options;
    options.bits = bits;
    auto quantized = Quantize(float_artifact, options);
    ASSERT_TRUE(quantized.ok());
    auto q_session = ScoringSession::FromArtifact(std::move(quantized).value());
    ASSERT_TRUE(q_session.ok());
    const QuantizedMatrix* stored =
        StoredAs<QuantizedMatrix>(q_session.value().artifact().scores);
    ASSERT_NE(stored, nullptr);
    const QuantizedMatrix& q = *stored;
    for (std::size_t u = 0; u < n; ++u) {
      const TopKRowOrder float_order =
          BuildTopKRowOrder(float_session.value(), u);
      const TopKRowOrder q_order = BuildTopKRowOrder(q_session.value(), u);
      ASSERT_EQ(float_order.size(), n - 1);
      ASSERT_EQ(q_order.size(), n - 1);
      std::vector<std::size_t> q_rank(n, 0);
      for (std::size_t r = 0; r < q_order.size(); ++r) q_rank[q_order[r]] = r;
      const double step = q.scales()[u];
      for (std::size_t a = 0; a < float_order.size(); ++a) {
        for (std::size_t b = a + 1; b < float_order.size(); ++b) {
          const std::uint32_t va = float_order[a];
          const std::uint32_t vb = float_order[b];
          const double sa = float_artifact.scores->At(u, va);
          const double sb = float_artifact.scores->At(u, vb);
          if (sa - sb > step * (1.0 + 1e-9)) {
            // Separated by more than one code step: order must hold.
            EXPECT_LT(q_rank[va], q_rank[vb])
                << "u=" << u << " va=" << va << " vb=" << vb;
          } else if (sa == sb) {
            // Exact float ties quantize to the same code, and both
            // orders break them by ascending v — identically.
            EXPECT_EQ(q.At(u, va), q.At(u, vb));
            EXPECT_EQ(q_rank[va] < q_rank[vb], va < vb);
            EXPECT_EQ(a < b, va < vb);
          }
        }
      }
    }
  }
}

CsrMatrix KnownLinks(std::size_t n) {
  Matrix links(n, n);
  links(0, 1) = 1.0;
  links(1, 0) = 1.0;
  links(0, 2) = 1.0;
  links(2, 0) = 1.0;
  return CsrMatrix::FromDense(links);
}

TEST(QuantizedServingTest, KnownLinkExclusionOnQuantizedModel) {
  const std::size_t n = 16;
  ArtifactQuantizerOptions options;
  auto quantized = Quantize(DenseArtifact(n, 11), options);
  ASSERT_TRUE(quantized.ok());
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.Swap(std::move(quantized).value(), KnownLinks(n)).ok());
  const auto model = registry.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->session.scores().quantized());
  auto excluded = TopKOnModel(*model, 0, n - 1, /*exclude_known_links=*/true);
  ASSERT_TRUE(excluded.ok());
  EXPECT_EQ(excluded.value().size(), n - 3);  // Minus self, 1 and 2.
  for (const TopKEntry& e : excluded.value()) {
    EXPECT_NE(e.v, 1u);
    EXPECT_NE(e.v, 2u);
  }
  auto full = TopKOnModel(*model, 0, n - 1, /*exclude_known_links=*/false);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().size(), n - 1);
}

TEST(QuantizedServingTest, HotRowsBitEqualToLazilyBuiltFloatRows) {
  const std::size_t n = 24;
  const ModelArtifact float_artifact = DenseArtifact(n, 13);
  auto float_session = ScoringSession::FromArtifact(
      DeserializeModelArtifact(SerializeModelArtifact(float_artifact))
          .value());
  ASSERT_TRUE(float_session.ok());

  ArtifactQuantizerOptions options;
  options.bits = QuantizationBits::kU8;
  options.hot_user_ids = {0, 3, 7, 200};  // 200 is out of range: skipped.
  options.hot_row_entries = 8;            // Incomplete prefixes (n−1 = 23).
  ArtifactQuantizeReport report;
  ModelArtifact copy =
      DeserializeModelArtifact(SerializeModelArtifact(float_artifact)).value();
  auto quantized = QuantizeModelArtifact(std::move(copy), options, &report);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_EQ(report.hot_rows, 3u);
  EXPECT_GT(report.float_bytes, report.quantized_bytes);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(std::move(quantized).value()).ok());
  const auto model = registry.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->hot_rows.size(), 3u);
  EXPECT_EQ(model->hot_rows.Find(200), nullptr);

  for (std::uint32_t u : {0u, 3u, 7u}) {
    const HotRow* row = model->hot_rows.Find(u);
    ASSERT_NE(row, nullptr) << "user " << u;
    EXPECT_FALSE(row->complete);
    ASSERT_EQ(row->entries.size(), 8u);
    // The stored prefix is the float session's lazily-built order with
    // the float scores — bit-equal, never the quantized payload.
    const TopKRowOrder oracle = BuildTopKRowOrder(float_session.value(), u);
    for (std::size_t r = 0; r < row->entries.size(); ++r) {
      EXPECT_EQ(row->entries[r].v, oracle[r]);
      EXPECT_EQ(row->entries[r].score,
                float_session.value().ScoreUnchecked(u, oracle[r]));
    }
    // Serving k within the prefix answers from the cache (tier cached)
    // with those exact float scores.
    ServeTier tier = ServeTier::kFull;
    auto topk = TopKOnModel(*model, u, 5, /*exclude_known_links=*/false,
                            &tier);
    ASSERT_TRUE(topk.ok());
    EXPECT_EQ(tier, ServeTier::kCached);
    ASSERT_EQ(topk.value().size(), 5u);
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(topk.value()[r].v, oracle[r]);
      EXPECT_EQ(topk.value()[r].score,
                float_session.value().ScoreUnchecked(u, oracle[r]));
    }
  }
  EXPECT_EQ(model->hot_hits.load(), 3u);

  // A request the prefix cannot cover falls back to the full path.
  ServeTier tier = ServeTier::kCached;
  auto large = TopKOnModel(*model, 3, 20, /*exclude_known_links=*/false,
                           &tier);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(tier, ServeTier::kFull);
  EXPECT_EQ(large.value().size(), 20u);
  // A non-hot user is always the full path.
  tier = ServeTier::kCached;
  ASSERT_TRUE(TopKOnModel(*model, 5, 4, false, &tier).ok());
  EXPECT_EQ(tier, ServeTier::kFull);
}

TEST(QuantizedServingTest, CompleteHotRowServesAnyK) {
  const std::size_t n = 12;
  ArtifactQuantizerOptions options;
  options.hot_user_ids = {2};
  options.hot_row_entries = 64;  // > n−1: the full order fits.
  auto quantized = Quantize(DenseArtifact(n, 17), options);
  ASSERT_TRUE(quantized.ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(std::move(quantized).value()).ok());
  const auto model = registry.Acquire();
  const HotRow* row = model->hot_rows.Find(2);
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->complete);
  EXPECT_EQ(row->entries.size(), n - 1);
  ServeTier tier = ServeTier::kFull;
  auto topk = TopKOnModel(*model, 2, n + 50, false, &tier);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(tier, ServeTier::kCached);
  EXPECT_EQ(topk.value().size(), n - 1);
}

TEST(QuantizedServingTest, RegistryPrecomputesConfiguredHotUsers) {
  const std::size_t n = 16;
  ArtifactQuantizerOptions options;  // No artifact-carried hot rows.
  auto quantized = Quantize(DenseArtifact(n, 19), options);
  ASSERT_TRUE(quantized.ok());
  ModelRegistryOptions registry_options;
  registry_options.hot_users = {4, 9, 99};  // 99 out of range: skipped.
  registry_options.hot_row_entries = 32;
  ModelRegistry registry(registry_options);
  ASSERT_TRUE(registry.Swap(std::move(quantized).value()).ok());
  const auto model = registry.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->hot_rows.size(), 2u);
  for (std::uint32_t u : {4u, 9u}) {
    const HotRow* row = model->hot_rows.Find(u);
    ASSERT_NE(row, nullptr);
    EXPECT_TRUE(row->complete);
    // Registry-built rows snapshot the PUBLISHED (quantized) session.
    const TopKRowOrder oracle = BuildTopKRowOrder(model->session, u);
    ASSERT_EQ(row->entries.size(), oracle.size());
    for (std::size_t r = 0; r < oracle.size(); ++r) {
      EXPECT_EQ(row->entries[r].v, oracle[r]);
      EXPECT_EQ(row->entries[r].score,
                model->session.ScoreUnchecked(u, oracle[r]));
    }
    ServeTier tier = ServeTier::kFull;
    ASSERT_TRUE(TopKOnModel(*model, u, 10, false, &tier).ok());
    EXPECT_EQ(tier, ServeTier::kCached);
  }
}

TEST(QuantizedServingTest, QuantizedShardedArtifactServes) {
  const std::size_t n = 14;
  const ModelArtifact float_artifact = ShardedArtifact(n, 23);
  auto float_session = ScoringSession::FromArtifact(
      DeserializeModelArtifact(SerializeModelArtifact(float_artifact))
          .value());
  ASSERT_TRUE(float_session.ok());
  ArtifactQuantizerOptions options;
  options.bits = QuantizationBits::kU16;
  ArtifactQuantizeReport report;
  ModelArtifact copy =
      DeserializeModelArtifact(SerializeModelArtifact(float_artifact)).value();
  auto quantized = QuantizeModelArtifact(std::move(copy), options, &report);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_GT(report.float_bytes, report.quantized_bytes);
  auto session = ScoringSession::FromArtifact(std::move(quantized).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_NE(ShardedOf(session.value().artifact().scores), nullptr);
  EXPECT_TRUE(session.value().scores().quantized());
  // Every pair stays within one u16 code step of the float oracle, and
  // the served matrix stays exactly symmetric.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      const double f = float_session.value().ScoreUnchecked(u, v);
      const double q = session.value().ScoreUnchecked(u, v);
      EXPECT_EQ(q, session.value().ScoreUnchecked(v, u));
      EXPECT_LE(std::fabs(f - q), 1.0 / 65535.0 + 1e-9)
          << "(" << u << ", " << v << ")";
    }
  }
}

TEST(QuantizedServingTest, QuantizingTwiceIsRejected) {
  auto quantized = Quantize(DenseArtifact(8, 29), {});
  ASSERT_TRUE(quantized.ok());
  const auto again = QuantizeModelArtifact(std::move(quantized).value(), {});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QuantizedServingTest, SwapUnderLoadServesConsistentSnapshots) {
  const std::size_t n = 16;
  const ModelArtifact float_artifact = DenseArtifact(n, 31);
  ArtifactQuantizerOptions options;
  options.hot_user_ids = {0, 1, 2, 3};
  options.hot_row_entries = 8;
  auto quantized = Quantize(float_artifact, options);
  ASSERT_TRUE(quantized.ok());
  const ModelArtifact quantized_artifact = std::move(quantized).value();

  ModelRegistry registry;
  ASSERT_TRUE(
      registry
          .Swap(DeserializeModelArtifact(
                    SerializeModelArtifact(float_artifact))
                    .value())
          .ok());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::thread worker([&] {
    std::uint64_t state = 97;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto model = registry.Acquire();
      const std::size_t u = NextRandom(state) % n;
      ServeTier tier = ServeTier::kFull;
      auto topk = TopKOnModel(*model, u, 6, false, &tier);
      if (!topk.ok()) {
        ++failures;
        continue;
      }
      // Whatever version answered, its entries must be self-consistent
      // with that snapshot: full-tier scores match the snapshot's own
      // session, cached-tier scores match its hot-row prefix.
      for (std::size_t r = 0; r < topk.value().size(); ++r) {
        const TopKEntry& e = topk.value()[r];
        if (tier == ServeTier::kFull) {
          if (e.score != model->session.ScoreUnchecked(u, e.v)) ++failures;
        } else {
          const HotRow* row = model->hot_rows.Find(
              static_cast<std::uint32_t>(u));
          if (row == nullptr || row->entries[r].v != e.v ||
              row->entries[r].score != e.score) {
            ++failures;
          }
        }
      }
    }
  });
  for (int swap = 0; swap < 20; ++swap) {
    const ModelArtifact& source =
        swap % 2 == 0 ? quantized_artifact : float_artifact;
    ASSERT_TRUE(
        registry
            .Swap(DeserializeModelArtifact(SerializeModelArtifact(source))
                      .value())
            .ok());
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(registry.current_version(), 21u);
  // The last swap (index 19) republished the float artifact.
  EXPECT_FALSE(registry.Acquire()->session.scores().quantized());
}

}  // namespace
}  // namespace slampred
