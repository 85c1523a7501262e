// Dense ↔ sparse equivalence of the CSR data path: every sparse kernel,
// feature builder and gradient builder must reproduce its dense
// reference BIT FOR BIT — not approximately — at 1, 2 and 7 threads.
// The sparse kernels earn this by keeping the dense kernels' chunk
// geometry and accumulation order and only skipping terms that are
// exact no-ops (adding 0.0 to a running sum that cannot be -0.0).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/aligned_generator.h"
#include "features/attribute_features.h"
#include "features/feature_tensor.h"
#include "features/structural_features.h"
#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/sparse_tensor3.h"
#include "linalg/tensor3.h"
#include "optim/cccp.h"
#include "optim/factored_solver.h"
#include "optim/objective.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// Runs `check` with the global pool pinned to 1, 2 and 7 threads, so
// every dense/sparse comparison below holds on the exact serial path
// and on two different parallel partitionings.
template <typename Check>
void ForEachThreadCount(Check check) {
  const std::size_t previous = ThreadPool::Global().num_threads();
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    check(threads);
  }
  ThreadPool::Global().Resize(previous);
}

void ExpectBitEqual(const Matrix& dense, const Matrix& sparse,
                    std::size_t threads) {
  ASSERT_EQ(dense.rows(), sparse.rows());
  ASSERT_EQ(dense.cols(), sparse.cols());
  for (std::size_t i = 0; i < dense.data().size(); ++i) {
    ASSERT_EQ(dense.data()[i], sparse.data()[i])
        << "flat index " << i << " at " << threads << " threads";
  }
}

// A matrix with ~`keep` density of Gaussian entries, exact zeros
// elsewhere — the regime the CSR kernels are built for.
Matrix SparseRandom(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    double keep = 0.12) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    const double gauss = rng.NextGaussian();  // Keep streams aligned.
    if (rng.NextDouble() < keep) v = gauss;
  }
  return m;
}

SocialGraph TestGraph(std::size_t n, std::uint64_t seed = 18) {
  Rng rng(seed);
  SocialGraph g(n);
  while (g.num_edges() < n * 4) {
    g.AddEdge(rng.NextBounded(n), rng.NextBounded(n));
  }
  return g;
}

// Odd size, larger than one GrainForWork chunk.
constexpr std::size_t kN = 83;

TEST(SparseEquivalenceTest, CsrMultiplyMatchesDenseGemm) {
  const Matrix a = SparseRandom(kN, kN, 1);
  const Matrix b = SparseRandom(kN, kN, 2);
  const CsrMatrix ca = CsrMatrix::FromDense(a);
  ForEachThreadCount([&](std::size_t threads) {
    ExpectBitEqual(a * b, ca.MultiplyDense(b), threads);
  });
}

TEST(SparseEquivalenceTest, RowFillMatchesFromTriplets) {
  // Every third row empty, row 5 cancelling to exact zeros everywhere,
  // the rest duplicate-heavy. Multiples of 1/4 keep every partial sum
  // exact, so the triplet sort's order among duplicates cannot change a
  // sum. The second shape fills chunks past one CsrRowWriter block.
  const auto check = [](std::size_t rows, std::size_t cols,
                        std::size_t draws) {
    Rng rng(41);
    std::vector<std::vector<Triplet>> by_row(rows);
    std::vector<Triplet> triplets;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i % 3 == 0) continue;
      for (std::size_t t = 0; t < draws; ++t) {
        const std::size_t col = rng.NextBounded(cols);
        const double value =
            0.25 * static_cast<double>(rng.NextBounded(9)) - 1.0;
        by_row[i].push_back({i, col, value});
        if (i == 5) by_row[i].push_back({i, col, -value});
      }
      triplets.insert(triplets.end(), by_row[i].begin(), by_row[i].end());
    }
    const CsrMatrix expected = CsrMatrix::FromTriplets(rows, cols, triplets);
    ASSERT_EQ(expected.row_ptr()[6], expected.row_ptr()[5]);

    ForEachThreadCount([&](std::size_t threads) {
      // Chunks of one row, chunks that split rows 3 by 3, one chunk.
      for (std::size_t grain : {std::size_t{1}, std::size_t{3}, rows + 1}) {
        const CsrMatrix built = CsrMatrix::FromRowFill(
            rows, cols, grain,
            [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
              SparseAccumulator acc(cols);
              for (std::size_t i = row0; i < row1; ++i) {
                for (const Triplet& t : by_row[i]) acc.Add(t.col, t.value);
                acc.Drain([&](std::size_t j, double v) { out.Push(j, v); });
                out.EndRow();
              }
            });
        EXPECT_EQ(built.rows(), rows);
        EXPECT_EQ(built.cols(), cols);
        EXPECT_EQ(built.row_ptr(), expected.row_ptr())
            << "grain " << grain << " at " << threads << " threads";
        EXPECT_EQ(built.col_idx(), expected.col_idx())
            << "grain " << grain << " at " << threads << " threads";
        ASSERT_EQ(built.values().size(), expected.values().size());
        EXPECT_EQ(std::memcmp(built.values().data(), expected.values().data(),
                              built.values().size() * sizeof(double)),
                  0)
            << "grain " << grain << " at " << threads << " threads";
      }
    });
  };
  check(23, 17, 12);
  check(40, 900, 600);
}

TEST(SparseEquivalenceTest, CsrElementwiseOpsMatchDense) {
  const Matrix a = SparseRandom(kN, kN, 3);
  const Matrix b = SparseRandom(kN, kN, 4);
  const CsrMatrix ca = CsrMatrix::FromDense(a);
  const CsrMatrix cb = CsrMatrix::FromDense(b);
  Matrix axpy = a;
  for (std::size_t i = 0; i < axpy.data().size(); ++i) {
    axpy.data()[i] += 0.5 * b.data()[i];
  }
  ForEachThreadCount([&](std::size_t threads) {
    ExpectBitEqual(axpy, ca.AddScaled(cb, 0.5).ToDense(), threads);
    ExpectBitEqual(a, CsrMatrix::FromDense(a).ToDense(), threads);
  });
}

TEST(SparseEquivalenceTest, StructuralBuildersMatchDense) {
  const SocialGraph g = TestGraph(120);
  ForEachThreadCount([&](std::size_t threads) {
    ExpectBitEqual(CommonNeighborsMap(g), CommonNeighborsCsr(g).ToDense(),
                   threads);
    ExpectBitEqual(JaccardMap(g), JaccardCsr(g).ToDense(), threads);
    ExpectBitEqual(AdamicAdarMap(g), AdamicAdarCsr(g).ToDense(), threads);
    ExpectBitEqual(ResourceAllocationMap(g),
                   ResourceAllocationCsr(g).ToDense(), threads);
    ExpectBitEqual(TruncatedKatzMap(g), TruncatedKatzCsr(g).ToDense(),
                   threads);
  });
}

// True iff `m` stores an entry at (i, j) (At cannot tell a stored zero
// from an absent one; CSR stores none, so this reads the pattern).
bool Stores(const CsrMatrix& m, std::size_t i, std::size_t j) {
  for (std::size_t p = m.row_ptr()[i]; p < m.row_ptr()[i + 1]; ++p) {
    if (m.col_idx()[p] == j) return true;
  }
  return false;
}

TEST(SparseEquivalenceTest, TruncatedKatzWalkShapesMatchDense) {
  // User 0 is isolated; 1 is a star hub over leaves 2-5; 6-7-8-9 is a
  // path; 10-11-12 is a triangle.
  SocialGraph g(13);
  for (std::size_t leaf = 2; leaf <= 5; ++leaf) g.AddEdge(1, leaf);
  g.AddEdge(6, 7);
  g.AddEdge(7, 8);
  g.AddEdge(8, 9);
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);
  g.AddEdge(12, 10);
  for (const double beta : {0.05, 0.5}) {
    const double beta_sq = beta * beta;
    ForEachThreadCount([&](std::size_t threads) {
      const CsrMatrix katz = TruncatedKatzCsr(g, beta);
      ExpectBitEqual(TruncatedKatzMap(g, beta), katz.ToDense(), threads);
      EXPECT_EQ(katz.row_ptr()[1], 0u) << "the isolated user has no row";
      // The path is bipartite: a pair has 2-walks or 3-walks, never both.
      EXPECT_EQ(katz.At(6, 8), 1.0 * beta);       // Only 6-7-8.
      EXPECT_EQ(katz.At(6, 9), 1.0 * beta_sq);    // Only 6-7-8-9.
      EXPECT_EQ(katz.At(7, 8), 3.0 * beta_sq);    // Three 3-walks.
      // The star: leaves meet through the hub, the hub reaches a leaf by
      // its four 3-walks.
      EXPECT_EQ(katz.At(2, 3), 1.0 * beta);
      EXPECT_EQ(katz.At(1, 2), 4.0 * beta_sq);
      // The triangle: both walk lengths, and both reach the diagonal
      // (a²(10,10) = a³(10,10) = 2), which is not stored.
      EXPECT_EQ(katz.At(10, 11), 1.0 * beta + 3.0 * beta_sq);
      for (std::size_t u = 0; u < g.num_users(); ++u) {
        EXPECT_FALSE(Stores(katz, u, u)) << "diagonal " << u;
      }
    });
  }
}

TEST(SparseEquivalenceTest, HalfStepSparsePartMatchesDenseOracle) {
  // Z = 2A + G against the dense expression at n = 256. G is signed and
  // half dense; on the first edges it cancels 2A exactly (g = -2), and
  // on the next ones it is absent, so Z stores 2A alone.
  constexpr std::size_t n = 256;
  const SocialGraph graph = TestGraph(n, 41);
  const CsrMatrix a = graph.AdjacencyCsr();
  Matrix g = SparseRandom(n, n, 43, 0.5);
  std::vector<UserPair> cancelled;
  const std::vector<UserPair> edges = graph.Edges();
  for (std::size_t e = 0; e < 20; ++e) {
    const UserPair pair = edges[e];
    g(pair.u, pair.v) = e < 10 ? -2.0 : 0.0;
    if (e < 10) cancelled.push_back(pair);
  }
  const Matrix oracle = a.ToDense() * 2.0 + g;
  std::size_t oracle_nnz = 0;
  for (const double v : oracle.data()) oracle_nnz += v != 0.0 ? 1 : 0;
  ForEachThreadCount([&](std::size_t threads) {
    const CsrMatrix z = HalfStepSparsePart(a, CsrMatrix::FromDense(g));
    ExpectBitEqual(oracle, z.ToDense(), threads);
    EXPECT_EQ(z.nnz(), oracle_nnz);
    for (const UserPair& pair : cancelled) {
      EXPECT_FALSE(Stores(z, pair.u, pair.v))
          << "(" << pair.u << "," << pair.v << ") cancels to 0";
      EXPECT_TRUE(Stores(z, pair.v, pair.u));  // G is not symmetric.
    }
  });
}

TEST(SparseEquivalenceTest, AttributeBuildersMatchDense) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(43);
  config.population.num_personas = 70;
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const HeterogeneousNetwork& network = gen.value().networks.target();
  for (AttributeKind kind :
       {AttributeKind::kWord, AttributeKind::kLocation,
        AttributeKind::kTimestamp}) {
    const Matrix profile = UserAttributeProfile(network, kind);
    const CsrMatrix profile_csr = UserAttributeProfileCsr(network, kind);
    ForEachThreadCount([&](std::size_t threads) {
      ExpectBitEqual(profile, profile_csr.ToDense(), threads);
      ExpectBitEqual(CosineSimilarityMap(profile),
                     CosineSimilarityCsr(profile_csr).ToDense(), threads);
      ExpectBitEqual(AttributeSimilarityMap(network, kind),
                     AttributeSimilarityCsr(network, kind).ToDense(),
                     threads);
    });
  }
}

TEST(SparseEquivalenceTest, TensorOpsMatchDense) {
  // Mixed-sign slices: slice 0 non-negative with implicit zeros (the
  // feature-map shape), slice 1 with negatives (normalisation densify
  // fallback), slice 2 all zeros (empty CSR).
  Tensor3 t(3, kN, kN);
  Rng rng(7);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (rng.NextDouble() < 0.2) {
        t(0, i, j) = rng.NextDouble();
        t(1, i, j) = rng.NextGaussian();
      }
    }
  }
  const SparseTensor3 sparse = SparseTensor3::FromDense(t);
  // The slice sum of the sparse path is G's target term at weight 1.
  auto sparse_sum = [&] {
    return BuildIntimacyGradientCsr(sparse, 1.0, {}, {}).ToDense();
  };
  ExpectBitEqual(t.SumSlices(), sparse_sum(), 0);

  Tensor3 dense_normalized = t;
  dense_normalized.NormalizeSlicesMinMax();
  ForEachThreadCount([&](std::size_t threads) {
    ExpectBitEqual(t.SumSlices(), sparse_sum(), threads);
    SparseTensor3 normalized = sparse;
    normalized.NormalizeSlicesMinMax();
    for (std::size_t c = 0; c < t.dim0(); ++c) {
      ExpectBitEqual(dense_normalized.Slice(c), normalized.Slice(c),
                     threads);
    }
  });
}

TEST(SparseEquivalenceTest, FeatureTensorMatchesDense) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(41);
  config.population.num_personas = 70;
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const HeterogeneousNetwork& network = gen.value().networks.target();
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(network);
  ForEachThreadCount([&](std::size_t threads) {
    const Tensor3 dense =
        BuildFeatureTensor(network, structure, FeatureTensorOptions{});
    const SparseTensor3 sparse =
        BuildSparseFeatureTensor(network, structure, FeatureTensorOptions{});
    ASSERT_EQ(dense.dim0(), sparse.dim0());
    const Tensor3 round_trip = sparse.ToDense();
    ASSERT_EQ(dense.data().size(), round_trip.data().size());
    for (std::size_t i = 0; i < dense.data().size(); ++i) {
      ASSERT_EQ(dense.data()[i], round_trip.data()[i])
          << "flat index " << i << " at " << threads << " threads";
    }
  });
}

TEST(SparseEquivalenceTest, ObjectiveMatchesDense) {
  // The objective reads the feature tensors only through G: built in
  // CSR from the sparse tensor, it must equal the dense oracle's G.
  Tensor3 t(3, kN, kN);
  Rng rng(17);
  for (double& v : t.data()) {
    const double gauss = rng.NextGaussian();
    if (rng.NextDouble() < 0.15) v = gauss;
  }
  const std::vector<Tensor3> dense_tensors = {t};
  const SparseTensor3 sparse = SparseTensor3::FromDense(t);

  ForEachThreadCount([&](std::size_t threads) {
    ExpectBitEqual(BuildIntimacyGradient(dense_tensors, {0.7}, kN),
                   BuildIntimacyGradientCsr(sparse, 0.7, {}, {}).ToDense(),
                   threads);
  });
}

TEST(SparseEquivalenceTest, PredictorMatchesDenseObjective) {
  // End to end through the solver: an objective assembled from sparse
  // tensors must yield the same predictor S (hence identical metrics)
  // as one assembled from their densified twins.
  const SocialGraph g = TestGraph(60, 23);
  Tensor3 t(2, 60, 60);
  t.SetSlice(0, CommonNeighborsMap(g));
  t.SetSlice(1, JaccardMap(g));
  t.NormalizeSlicesMinMax();
  const std::vector<double> weights = {0.5};

  CccpOptions options;
  options.max_outer_iterations = 2;
  options.inner.max_iterations = 20;

  Objective dense_objective;
  dense_objective.a = g.AdjacencyCsr();
  dense_objective.grad_v =
      BuildIntimacyGradient(std::vector<Tensor3>{t}, weights, 60);
  dense_objective.gamma = 0.3;
  dense_objective.tau = 1.0;

  Objective sparse_objective = dense_objective;
  sparse_objective.grad_v =
      BuildIntimacyGradientCsr(SparseTensor3::FromDense(t), weights[0], {},
                               {})
          .ToDense();

  ForEachThreadCount([&](std::size_t threads) {
    auto dense_s = SolveCccp(dense_objective, options, nullptr);
    auto sparse_s = SolveCccp(sparse_objective, options, nullptr);
    ASSERT_TRUE(dense_s.ok());
    ASSERT_TRUE(sparse_s.ok());
    ExpectBitEqual(dense_s.value(), sparse_s.value(), threads);
  });
}

// The AddScaled chain BuildIntimacyGradientCsr replaced: the target
// slices summed by sorted row merges, scaled once, then g + α_k·s_k per
// source — every intermediate a whole-matrix CSR with exact zeros
// dropped.
CsrMatrix AddScaledChain(const SparseTensor3& target, double target_weight,
                         const std::vector<CsrMatrix>& sources,
                         const std::vector<double>& weights) {
  const std::size_t n = target.dim1();
  CsrMatrix g = CsrMatrix::FromTriplets(n, n, {});
  if (target_weight != 0.0 && !target.empty()) {
    CsrMatrix sum = CsrMatrix::FromDense(target.Slice(0));
    for (std::size_t c = 1; c < target.dim0(); ++c) {
      sum = sum.AddScaled(CsrMatrix::FromDense(target.Slice(c)), 1.0);
    }
    g = g.AddScaled(sum, target_weight);
  }
  for (std::size_t k = 0; k < sources.size(); ++k) {
    if (weights[k] != 0.0) g = g.AddScaled(sources[k], weights[k]);
  }
  return g;
}

TEST(SparseEquivalenceTest, IntimacyGradientRowPassMatchesAddScaledChain) {
  // Three mixed-sign CSR slices and a degree slice; row 0 is built so
  // its entries cancel to exact zeros: (0,1) inside the target sum,
  // (0,2) between the scaled target and the source. n is large enough
  // for the row pass to split into several chunks.
  constexpr std::size_t n = 300;
  Tensor3 t(3, n, n);
  Rng rng(29);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.NextDouble() < 0.15) {
        t(rng.NextBounded(3), i, j) = rng.NextGaussian();
      }
    }
  }
  t(0, 0, 1) = 0.5;
  t(1, 0, 1) = -0.5;
  t(0, 0, 2) = 0.5;
  const SparseTensor3 csr_only = SparseTensor3::FromDense(t);
  SparseTensor3 target(4, n, n);
  for (std::size_t c = 0; c < 3; ++c) {
    target.SetSlice(c, CsrMatrix::FromDense(t.Slice(c)));
  }
  std::vector<double> degrees(n, 0.0);  // x_0 = 0 keeps row 0 intact.
  for (std::size_t u = 1; u < n; ++u) {
    degrees[u] = static_cast<double>(rng.NextBounded(4));
  }
  target.SetDegreeSlice(3, degrees);

  Matrix source = SparseRandom(n, n, 31, 0.3);
  source(0, 1) = 0.75;
  source(0, 2) = -0.25;  // 1.0 · 0.5 + 2.0 · (−0.25) = 0.
  const std::vector<CsrMatrix> sources = {CsrMatrix::FromDense(source),
                                          CsrMatrix::FromDense(t.Slice(2))};
  const std::vector<double> weights = {2.0, 0.0};
  const double target_weight = 1.0;
  for (const SparseTensor3* tensor :
       std::vector<const SparseTensor3*>{&csr_only, &target}) {
    const CsrMatrix expected =
        AddScaledChain(*tensor, target_weight, sources, weights);
    ForEachThreadCount([&](std::size_t threads) {
      const CsrMatrix g = BuildIntimacyGradientCsr(*tensor, target_weight,
                                                   sources, weights);
      ASSERT_EQ(expected.row_ptr(), g.row_ptr()) << threads << " threads";
      ASSERT_EQ(expected.col_idx(), g.col_idx()) << threads << " threads";
      ASSERT_EQ(expected.values().size(), g.values().size());
      for (std::size_t p = 0; p < g.values().size(); ++p) {
        ASSERT_EQ(expected.values()[p], g.values()[p])
            << "entry " << p << " at " << threads << " threads";
      }
      // (0,1) cancelled inside the target sum, so only the source's
      // term is left; (0,2) cancelled in G and is dropped, not stored.
      EXPECT_EQ(g.At(0, 1), 2.0 * 0.75);
      for (std::size_t p = g.row_ptr()[0]; p < g.row_ptr()[1]; ++p) {
        EXPECT_NE(g.col_idx()[p], 2u);
      }
    });
  }
}

}  // namespace
}  // namespace slampred
