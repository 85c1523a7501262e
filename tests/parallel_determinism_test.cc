// Bit-identity of every parallelized kernel across thread counts
// {1, 2, 7}: the pool's determinism contract says the partitioning (and
// hence every floating-point accumulation order) depends only on the
// loop geometry, never on how many workers execute it.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/unsupervised.h"
#include "datagen/aligned_generator.h"
#include "eval/experiment.h"
#include "features/feature_tensor.h"
#include "features/structural_features.h"
#include "graph/social_graph.h"
#include "linalg/matrix.h"
#include "linalg/matrix_ops.h"
#include "linalg/tensor3.h"
#include "optim/objective.h"
#include "optim/proximal.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// Runs `compute` with the global pool pinned to 1, 2 and 7 threads and
// checks the three results are bit-identical via `expect_equal`.
template <typename Compute, typename ExpectEqual>
void CheckThreadInvariance(Compute compute, ExpectEqual expect_equal) {
  const std::size_t previous = ThreadPool::Global().num_threads();
  ThreadPool::Global().Resize(1);
  const auto serial = compute();
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    const auto parallel = compute();
    expect_equal(serial, parallel, threads);
  }
  ThreadPool::Global().Resize(previous);
}

void ExpectMatrixBitIdentical(const Matrix& a, const Matrix& b,
                              std::size_t threads) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << "flat index " << i << " at " << threads << " threads";
  }
}

template <typename Compute>
void CheckMatrixInvariance(Compute compute) {
  CheckThreadInvariance(compute, ExpectMatrixBitIdentical);
}

template <typename Compute>
void CheckScalarInvariance(Compute compute) {
  CheckThreadInvariance(compute,
                        [](double a, double b, std::size_t threads) {
                          ASSERT_EQ(a, b) << "at " << threads << " threads";
                        });
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomGaussian(rows, cols, rng);
}

// Matrices larger than one GrainForWork chunk, so the parallel path
// actually splits the loops.
constexpr std::size_t kN = 83;

TEST(ParallelDeterminismTest, Gemm) {
  const Matrix a = RandomMatrix(kN, kN, 1);
  const Matrix b = RandomMatrix(kN, kN, 2);
  CheckMatrixInvariance([&] { return a * b; });
}

TEST(ParallelDeterminismTest, GemmWithZeroRows) {
  // Exercises the zero-skip fast paths.
  Matrix a = RandomMatrix(kN, kN, 3);
  for (std::size_t i = 0; i < kN; i += 3) {
    for (std::size_t k = 0; k < kN; ++k) a(i, k) = 0.0;
  }
  const Matrix b = RandomMatrix(kN, kN, 4);
  CheckMatrixInvariance([&] { return a * b; });
  CheckMatrixInvariance([&] { return MultiplyABt(a, b); });
  CheckMatrixInvariance([&] { return MultiplyAtB(a, b); });
}

TEST(ParallelDeterminismTest, MatVec) {
  const Matrix a = RandomMatrix(kN, kN, 5);
  Rng rng(6);
  Vector v(kN);
  for (std::size_t i = 0; i < kN; ++i) v[i] = rng.NextGaussian();
  CheckThreadInvariance([&] { return a * v; },
                        [](const Vector& x, const Vector& y,
                           std::size_t threads) {
                          ASSERT_EQ(x.size(), y.size());
                          for (std::size_t i = 0; i < x.size(); ++i) {
                            ASSERT_EQ(x[i], y[i])
                                << "index " << i << " at " << threads
                                << " threads";
                          }
                        });
}

TEST(ParallelDeterminismTest, TransposeAndSymmetrize) {
  const Matrix a = RandomMatrix(kN, kN, 7);
  CheckMatrixInvariance([&] { return a.Transposed(); });
  CheckMatrixInvariance([&] { return a.Symmetrized(); });
}

TEST(ParallelDeterminismTest, GramAndAbt) {
  const Matrix a = RandomMatrix(kN, kN / 2, 8);
  const Matrix b = RandomMatrix(kN, kN / 2, 9);
  CheckMatrixInvariance([&] { return GramAtA(a); });
  CheckMatrixInvariance([&] { return GramAAt(a); });
  CheckMatrixInvariance([&] { return MultiplyABt(a, b); });
  CheckMatrixInvariance([&] { return MultiplyAtB(a, b); });
}

TEST(ParallelDeterminismTest, SpectralNormEstimate) {
  const Matrix a = RandomMatrix(kN, kN, 10);
  CheckScalarInvariance([&] { return SpectralNormEstimate(a, 12); });
}

TEST(ParallelDeterminismTest, TensorSumAndNormalize) {
  Rng rng(11);
  Tensor3 t(4, kN, kN);
  for (double& v : t.data()) v = rng.NextGaussian();
  CheckMatrixInvariance([&] { return t.SumSlices(); });
  CheckThreadInvariance(
      [&] {
        Tensor3 copy = t;
        copy.NormalizeSlicesMinMax();
        return copy;
      },
      [](const Tensor3& a, const Tensor3& b, std::size_t threads) {
        ASSERT_EQ(a.data().size(), b.data().size());
        for (std::size_t i = 0; i < a.data().size(); ++i) {
          ASSERT_EQ(a.data()[i], b.data()[i])
              << "flat index " << i << " at " << threads << " threads";
        }
      });
}

TEST(ParallelDeterminismTest, ProximalOperators) {
  const Matrix s = RandomMatrix(kN, kN, 13);
  CheckMatrixInvariance([&] { return ProxL1(s, 0.2); });
  CheckMatrixInvariance([&] {
    auto prox = ProxNuclear(s, 0.5);
    EXPECT_TRUE(prox.ok());
    return prox.ok() ? prox.value() : Matrix();
  });
  const Matrix sym = s.Symmetrized();
  CheckMatrixInvariance([&] {
    auto prox = ProxNuclearSymmetric(sym, 0.5);
    EXPECT_TRUE(prox.ok());
    return prox.ok() ? prox.value() : Matrix();
  });
}

TEST(ParallelDeterminismTest, ObjectiveEvaluations) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(RandomMatrix(kN, kN, 14));
  objective.grad_v = RandomMatrix(kN, kN, 15);
  objective.gamma = 0.3;
  objective.tau = 1.0;
  const Matrix s = RandomMatrix(kN, kN, 16);

  Rng rng(17);
  Tensor3 t(3, kN, kN);
  for (double& v : t.data()) v = rng.NextGaussian();
  const std::vector<Tensor3> tensors = {t};
  const std::vector<double> weights = {0.7};

  CheckScalarInvariance([&] { return SmoothValue(objective, s); });
  CheckMatrixInvariance([&] { return SmoothGradient(objective, s); });
  CheckScalarInvariance(
      [&] { return FullObjectiveValue(objective, s, tensors, weights); });
}

SocialGraph TestGraph(std::size_t n) {
  Rng rng(18);
  SocialGraph g(n);
  while (g.num_edges() < n * 4) {
    g.AddEdge(rng.NextBounded(n), rng.NextBounded(n));
  }
  return g;
}

TEST(ParallelDeterminismTest, StructuralFeatureMaps) {
  const SocialGraph g = TestGraph(120);
  CheckMatrixInvariance([&] { return CommonNeighborsMap(g); });
  CheckMatrixInvariance([&] { return JaccardMap(g); });
  CheckMatrixInvariance([&] { return AdamicAdarMap(g); });
  CheckMatrixInvariance([&] { return ResourceAllocationMap(g); });
  CheckMatrixInvariance([&] { return PreferentialAttachmentMap(g); });
}

TEST(ParallelDeterminismTest, FeatureMapsMatchScatterForm) {
  // The gather rewrite must agree exactly with the textbook scatter
  // accumulation (middle nodes visited in ascending order).
  const SocialGraph g = TestGraph(90);
  const std::size_t n = g.num_users();
  Matrix expected(n, n);
  for (std::size_t w = 0; w < n; ++w) {
    const auto& nbrs = g.Neighbors(w);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        expected(nbrs[a], nbrs[b]) += 1.0;
        expected(nbrs[b], nbrs[a]) += 1.0;
      }
    }
  }
  ExpectMatrixBitIdentical(expected, CommonNeighborsMap(g), 0);
}

TEST(ParallelDeterminismTest, UnsupervisedScoring) {
  const SocialGraph g = TestGraph(100);
  std::vector<UserPair> pairs;
  for (std::size_t u = 0; u < g.num_users(); ++u) {
    for (std::size_t v = u + 1; v < g.num_users(); v += 3) {
      pairs.push_back({u, v});
    }
  }
  auto expect_scores_equal = [](const std::vector<double>& a,
                                const std::vector<double>& b,
                                std::size_t threads) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "pair " << i << " at " << threads
                            << " threads";
    }
  };
  CheckThreadInvariance(
      [&] {
        auto scores = CnPredictor(g).ScorePairs(pairs);
        EXPECT_TRUE(scores.ok());
        return scores.value();
      },
      expect_scores_equal);
  CheckThreadInvariance(
      [&] {
        auto scores = JcPredictor(g).ScorePairs(pairs);
        EXPECT_TRUE(scores.ok());
        return scores.value();
      },
      expect_scores_equal);
  CheckThreadInvariance(
      [&] {
        auto scores = PaPredictor(g).ScorePairs(pairs);
        EXPECT_TRUE(scores.ok());
        return scores.value();
      },
      expect_scores_equal);
}

TEST(ParallelDeterminismTest, ExperimentFoldsAcrossThreadCounts) {
  // End-to-end: the fold-parallel RunMethod must give the same per-fold
  // metrics for every pool size.
  AlignedGeneratorConfig config = DefaultExperimentConfig(41);
  config.population.num_personas = 80;
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();

  ExperimentOptions options;
  options.num_folds = 3;
  options.negatives_per_positive = 2.0;
  options.precision_k = 20;

  CheckThreadInvariance(
      [&] {
        auto runner =
            ExperimentRunner::Create(gen.value().networks, options);
        EXPECT_TRUE(runner.ok());
        auto result = runner.value().RunMethod(MethodId::kJc, 1.0);
        EXPECT_TRUE(result.ok());
        return result.value();
      },
      [](const MethodResult& a, const MethodResult& b,
         std::size_t threads) {
        ASSERT_EQ(a.auc_folds.size(), b.auc_folds.size());
        for (std::size_t f = 0; f < a.auc_folds.size(); ++f) {
          ASSERT_EQ(a.auc_folds[f], b.auc_folds[f])
              << "fold " << f << " at " << threads << " threads";
          ASSERT_EQ(a.precision_folds[f], b.precision_folds[f])
              << "fold " << f << " at " << threads << " threads";
        }
      });
}

TEST(ParallelDeterminismTest, FeatureTensorEndToEnd) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(43);
  config.population.num_personas = 70;
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const HeterogeneousNetwork& network = gen.value().networks.target();
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(network);

  CheckThreadInvariance(
      [&] {
        return BuildFeatureTensor(network, structure,
                                  FeatureTensorOptions{});
      },
      [](const Tensor3& a, const Tensor3& b, std::size_t threads) {
        ASSERT_EQ(a.data().size(), b.data().size());
        for (std::size_t i = 0; i < a.data().size(); ++i) {
          ASSERT_EQ(a.data()[i], b.data()[i])
              << "flat index " << i << " at " << threads << " threads";
        }
      });
}

// --- Sparse data-path kernels ---------------------------------------

TEST(ParallelDeterminismTest, SparseMatrixKernels) {
  const CsrMatrix a = CsrMatrix::FromDense(RandomMatrix(kN, kN, 31));
  const Matrix d = RandomMatrix(kN, kN, 33);
  CheckMatrixInvariance([&] { return a.MultiplyDense(d); });
}

TEST(ParallelDeterminismTest, StructuralFeatureMapsCsr) {
  const SocialGraph g = TestGraph(120);
  CheckMatrixInvariance([&] { return CommonNeighborsCsr(g).ToDense(); });
  CheckMatrixInvariance([&] { return JaccardCsr(g).ToDense(); });
  CheckMatrixInvariance([&] { return AdamicAdarCsr(g).ToDense(); });
  CheckMatrixInvariance([&] { return ResourceAllocationCsr(g).ToDense(); });
  CheckMatrixInvariance([&] { return TruncatedKatzCsr(g).ToDense(); });
}

TEST(ParallelDeterminismTest, SparseTensorOps) {
  Rng rng(34);
  Tensor3 t(3, kN, kN);
  for (double& v : t.data()) {
    const double gauss = rng.NextGaussian();
    if (rng.NextDouble() < 0.2) v = gauss;
  }
  const SparseTensor3 sparse = SparseTensor3::FromDense(t);
  CheckMatrixInvariance([&] {
    return BuildIntimacyGradientCsr(sparse, 1.0, {}, {}).ToDense();
  });
  CheckMatrixInvariance([&] {
    SparseTensor3 normalized = sparse;
    normalized.NormalizeSlicesMinMax();
    return BuildIntimacyGradientCsr(normalized, 1.0, {}, {}).ToDense();
  });
}

TEST(ParallelDeterminismTest, SparseObjectiveEvaluations) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(RandomMatrix(kN, kN, 35));
  objective.gamma = 0.3;
  objective.tau = 1.0;
  const Matrix s = RandomMatrix(kN, kN, 36);

  Rng rng(37);
  Tensor3 t(3, kN, kN);
  for (double& v : t.data()) {
    const double gauss = rng.NextGaussian();
    if (rng.NextDouble() < 0.15) v = gauss;
  }
  const SparseTensor3 tensor = SparseTensor3::FromDense(t);
  objective.grad_v = BuildIntimacyGradientCsr(tensor, 0.7, {}, {}).ToDense();

  // G with a source slice sum next to the target slices.
  const std::vector<CsrMatrix> sources = {CsrMatrix::FromDense(t.Slice(1))};
  CheckMatrixInvariance([&] {
    return BuildIntimacyGradientCsr(tensor, 0.7, sources, {1.3}).ToDense();
  });
  CheckScalarInvariance([&] { return SmoothValue(objective, s); });
  CheckMatrixInvariance([&] { return SmoothGradient(objective, s); });
}

TEST(ParallelDeterminismTest, SparseFeatureTensorEndToEnd) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(43);
  config.population.num_personas = 70;
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const HeterogeneousNetwork& network = gen.value().networks.target();
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(network);

  // The dense build is the oracle of every slice, the preferential-
  // attachment degree slice included (the serial result is compared
  // below, the 2- and 7-thread results against it).
  const Tensor3 reference =
      BuildFeatureTensor(network, structure, FeatureTensorOptions{});
  auto expect_reference = [&](const SparseTensor3& sparse,
                              std::size_t threads) {
    const Tensor3 dense = sparse.ToDense();
    ASSERT_EQ(reference.data().size(), dense.data().size());
    for (std::size_t i = 0; i < dense.data().size(); ++i) {
      ASSERT_EQ(reference.data()[i], dense.data()[i])
          << "flat index " << i << " at " << threads << " threads";
    }
  };
  CheckThreadInvariance(
      [&] {
        return BuildSparseFeatureTensor(network, structure,
                                        FeatureTensorOptions{});
      },
      [&](const SparseTensor3& a, const SparseTensor3& b,
          std::size_t threads) {
        ASSERT_EQ(a.TotalNnz(), b.TotalNnz());
        expect_reference(a, 1);
        expect_reference(b, threads);
      });
}

}  // namespace
}  // namespace slampred
