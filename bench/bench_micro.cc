// EXP-M — google-benchmark micro-benchmarks of the numerical kernels the
// experiments spend their time in: GEMM, SVD, symmetric eigen, the two
// proximal operators, feature extraction and AUC computation.
//
// Parallelized kernels run over a (n, threads) grid so serial vs.
// parallel timings land in the same report; pass
// --benchmark_out=BENCH_micro.json --benchmark_out_format=json (or use
// the `bench_micro_json` CMake target / tools/run_bench_micro.sh) to
// record them. Results are bit-identical across the threads axis by the
// pool's determinism contract; only the timing changes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fit_pipeline.h"
#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "datagen/aligned_generator.h"
#include "embedding/indicator_matrices.h"
#include "embedding/link_instance.h"
#include "embedding/projection_solver.h"
#include "eval/metrics.h"
#include "linalg/quantized_matrix.h"
#include "serve/artifact_quantizer.h"
#include "serve/topk_index.h"
#include "features/feature_tensor.h"
#include "features/structural_features.h"
#include "graph/partitioner.h"
#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/matrix_ops.h"
#include "linalg/qr.h"
#include "linalg/sparse_tensor3.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "optim/cccp.h"
#include "optim/factored_solver.h"
#include "optim/guardrails.h"
#include "optim/objective.h"
#include "optim/proximal.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// Pins the global pool to the benchmark's `threads` argument for the
// duration of one benchmark run, restoring the previous size after.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t threads)
      : previous_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().Resize(threads);
  }
  ~ThreadCountGuard() { ThreadPool::Global().Resize(previous_); }

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  std::size_t previous_;
};

// (n, threads) grid for the parallelized kernels.
void SizeThreadGrid(benchmark::internal::Benchmark* b,
                    std::vector<std::int64_t> sizes) {
  b->ArgsProduct({std::move(sizes), {1, 4}})->ArgNames({"n", "threads"});
}

Matrix RandomMatrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomGaussian(n, n, rng);
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const Matrix a = RandomMatrix(n, 1);
  const Matrix b = RandomMatrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gemm)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {32, 64, 128, 256});
});

void BM_MultiplyABt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const Matrix a = RandomMatrix(n, 12);
  const Matrix b = RandomMatrix(n, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiplyABt(a, b));
  }
}
BENCHMARK(BM_MultiplyABt)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {64, 128, 256});
});

void BM_GramAtA(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const Matrix a = RandomMatrix(n, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramAtA(a));
  }
}
BENCHMARK(BM_GramAtA)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {64, 128, 256});
});

void BM_Svd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, 3);
  for (auto _ : state) {
    auto svd = ComputeSvd(a);
    benchmark::DoNotOptimize(svd);
  }
}
BENCHMARK(BM_Svd)->Arg(16)->Arg(32)->Arg(64);

void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, 4).Symmetrized();
  for (auto _ : state) {
    auto eig = ComputeSymmetricEigen(a);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_ProxL1(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const Matrix s = RandomMatrix(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProxL1(s, 0.1));
  }
}
BENCHMARK(BM_ProxL1)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {64, 256, 512});
});

void BM_ProxNuclearSymmetric(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const Matrix s = RandomMatrix(n, 6).Symmetrized();
  for (auto _ : state) {
    auto prox = ProxNuclearSymmetric(s, 0.1);
    benchmark::DoNotOptimize(prox);
  }
}
BENCHMARK(BM_ProxNuclearSymmetric)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {32, 64, 128});
    });

SocialGraph BenchGraph(std::size_t n) {
  Rng rng(7);
  SocialGraph g(n);
  const std::size_t edges = n * 3;
  while (g.num_edges() < edges) {
    g.AddEdge(rng.NextBounded(n), rng.NextBounded(n));
  }
  return g;
}

void BM_CommonNeighbors(benchmark::State& state) {
  const SocialGraph g = BenchGraph(static_cast<std::size_t>(state.range(0)));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CommonNeighborsMap(g));
  }
}
BENCHMARK(BM_CommonNeighbors)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {128, 256});
});

void BM_TruncatedKatz(benchmark::State& state) {
  const SocialGraph g = BenchGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TruncatedKatzMap(g));
  }
}
BENCHMARK(BM_TruncatedKatz)->Arg(64)->Arg(128)->Arg(256);

// --- Sparse data path vs. its dense counterparts --------------------
// The CSR kernels below produce bit-identical results to the dense
// benchmarks they mirror (BM_CommonNeighbors, BM_TruncatedKatz and the
// dense objective); only the asymptotics change
// (O(n³)/O(d·n²) → O(nnz)-driven).

void BM_CommonNeighborsCsr(benchmark::State& state) {
  const SocialGraph g = BenchGraph(static_cast<std::size_t>(state.range(0)));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CommonNeighborsCsr(g));
  }
}
BENCHMARK(BM_CommonNeighborsCsr)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {128, 256, 512});
    });

void BM_TruncatedKatzCsr(benchmark::State& state) {
  const SocialGraph g = BenchGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TruncatedKatzCsr(g));
  }
}
BENCHMARK(BM_TruncatedKatzCsr)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Eight structural slices assembled in CSR — the feature-build hot
// loop, at the real pipeline's slice count (two graphs' worth of
// CN/JC/AA/RA maps).
SparseTensor3 BenchSparseTensor(const SocialGraph& g1,
                                const SocialGraph& g2) {
  SparseTensor3 tensor(8, g1.num_users(), g1.num_users());
  tensor.SetSlice(0, CommonNeighborsCsr(g1));
  tensor.SetSlice(1, JaccardCsr(g1));
  tensor.SetSlice(2, AdamicAdarCsr(g1));
  tensor.SetSlice(3, ResourceAllocationCsr(g1));
  tensor.SetSlice(4, CommonNeighborsCsr(g2));
  tensor.SetSlice(5, JaccardCsr(g2));
  tensor.SetSlice(6, AdamicAdarCsr(g2));
  tensor.SetSlice(7, ResourceAllocationCsr(g2));
  tensor.NormalizeSlicesMinMax();
  return tensor;
}

void BM_SparseFeatureBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SocialGraph g1 = BenchGraph(n);
  const SocialGraph g2 = BenchGraph(n);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BenchSparseTensor(g1, g2));
  }
}
BENCHMARK(BM_SparseFeatureBuild)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {256, 1024, 2048});
    });

void BM_DenseFeatureBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SocialGraph g1 = BenchGraph(n);
  const SocialGraph g2 = BenchGraph(n);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    Tensor3 tensor(8, n, n);
    tensor.SetSlice(0, CommonNeighborsMap(g1));
    tensor.SetSlice(1, JaccardMap(g1));
    tensor.SetSlice(2, AdamicAdarMap(g1));
    tensor.SetSlice(3, ResourceAllocationMap(g1));
    tensor.SetSlice(4, CommonNeighborsMap(g2));
    tensor.SetSlice(5, JaccardMap(g2));
    tensor.SetSlice(6, AdamicAdarMap(g2));
    tensor.SetSlice(7, ResourceAllocationMap(g2));
    tensor.NormalizeSlicesMinMax();
    benchmark::DoNotOptimize(tensor);
  }
}
BENCHMARK(BM_DenseFeatureBuild)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {256, 1024, 2048});
    });

// The fit's feature and embedding stages on the seed-42 scale-out
// bundle, monolithic: raw tensors, Theorem-1 adaptation of the source
// and the CCCP gradient G — the stages that hold the preferential-
// attachment slice and the source projection.
void BM_FeatureEmbedding(benchmark::State& state) {
  ScaleOutConfig bundle;
  bundle.num_users = static_cast<std::size_t>(state.range(0));
  bundle.seed = 42;
  auto generated = GenerateAlignedScaleOut(bundle);
  if (!generated.ok()) {
    state.SkipWithError(generated.status().ToString().c_str());
    return;
  }
  const AlignedNetworks& networks = generated.value().networks;
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(networks.target());
  const SlamPredConfig config;
  const FeatureStage features(config);
  const EmbeddingStage embedding(config);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    FitContext context;
    context.networks = &networks;
    context.target_structure = &structure;
    Status status = features.Run(context);
    if (status.ok()) status = embedding.Run(context);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(context.intimacy_gradient);
  }
}
BENCHMARK(BM_FeatureEmbedding)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {1000, 3000});
    })
    ->Unit(benchmark::kMillisecond);

// One Theorem-1 solve on the seed-42 bundle's default instance sample
// (target on its full graph): the aligned indicator W_A, the label
// sandwiches Z·L·Zᵀ and the generalized eigenproblem — what every fit
// (and every cluster of a partitioned one) pays once. The tensors and
// the sample are built outside the timed loop; the sample is
// standardised per network as the adapter does, so few features are
// exact zeros. Serial code: no threads axis.
void BM_SolveProjections(benchmark::State& state) {
  auto generated = GenerateAligned(DefaultExperimentConfig(42));
  if (!generated.ok()) {
    state.SkipWithError(generated.status().ToString().c_str());
    return;
  }
  const AlignedNetworks& networks = generated.value().networks;
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(networks.target());
  const std::vector<SparseTensor3> tensors = {
      BuildSparseFeatureTensor(networks.target(), structure),
      BuildSparseFeatureTensor(
          networks.source(0),
          SocialGraph::FromHeterogeneousNetwork(networks.source(0)))};
  Rng rng(42);
  auto sampled = SampleLinkInstances(networks, structure, tensors,
                                     InstanceSampleOptions{}, rng);
  if (!sampled.ok()) {
    state.SkipWithError(sampled.status().ToString().c_str());
    return;
  }
  InstanceSample& sample = sampled.value();
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    const std::size_t begin = sample.network_offsets[k];
    const std::size_t end = sample.network_offsets[k + 1];
    for (std::size_t d = 0; d < sample.feature_dims[k]; ++d) {
      double mean = 0.0;
      double sq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        mean += sample.instances[i].features[d];
      }
      mean /= static_cast<double>(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        const double diff = sample.instances[i].features[d] - mean;
        sq += diff * diff;
      }
      const double std = std::sqrt(sq / static_cast<double>(end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        double& x = sample.instances[i].features[d];
        x = std > 1e-12 ? (x - mean) / std : 0.0;
      }
    }
  }
  const std::vector<const AnchorLinks*> anchors = {&networks.anchors(0)};
  for (auto _ : state) {
    auto projections = SolveProjections(
        sample, BuildAlignedIndicator(sample, anchors), ProjectionOptions{});
    if (!projections.ok()) {
      state.SkipWithError(projections.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(projections);
  }
  state.counters["instances"] = static_cast<double>(sample.total());
}
BENCHMARK(BM_SolveProjections)->Unit(benchmark::kMillisecond);

// Objective data terms (loss + γ‖S‖₁ + the intimacy sweep over all d·n²
// entries of the dense tensor) with τ = 0 so the dense-SVD nuclear norm
// does not drown the sweep. A is read in CSR.
void BM_ObjectiveDense(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SocialGraph g1 = BenchGraph(n);
  const SocialGraph g2 = BenchGraph(n);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const SparseTensor3 sparse = BenchSparseTensor(g1, g2);
  const std::vector<Tensor3> tensors = {sparse.ToDense()};
  const std::vector<double> weights = {0.25};
  Objective objective;
  objective.a = g1.AdjacencyCsr();
  objective.grad_v =
      BuildIntimacyGradientCsr(sparse, weights[0], {}, {}).ToDense();
  objective.gamma = 0.3;
  objective.tau = 0.0;
  const Matrix s = RandomMatrix(n, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FullObjectiveValue(objective, s, tensors, weights));
  }
}
BENCHMARK(BM_ObjectiveDense)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {256, 1024, 2048});
});

// --- Factored low-rank solve path -----------------------------------
// The factored prox shrinks the spectrum of a k-column range sketch in
// O(n·k²), so its n axis extends to 16384 where the dense proxes
// (O(n³)) stop at 128–256. The full-solve pair below runs both
// backends on the same problem with a reduced iteration budget (this
// times the per-step cost, not convergence); the dense twin is capped
// at 512, past which a single dense decomposition already exceeds the
// entire factored solve — the crossover recorded in EXPERIMENTS.md.

void BM_ProxNuclearFactored(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  // 24 sketch columns = the default rank 16 + 8 oversampling regime.
  constexpr std::size_t kSketchCols = 24;
  Rng rng(23);
  const Matrix q =
      OrthonormalizeColumns(Matrix::RandomGaussian(n, kSketchCols, rng));
  const Matrix b = Matrix::RandomGaussian(n, kSketchCols, rng);
  const GuardrailOptions guardrails;
  for (auto _ : state) {
    RecoveryStats stats;
    auto prox = GuardedFactoredProxNuclear(q, b, 0.1, guardrails, &stats);
    benchmark::DoNotOptimize(prox);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProxNuclearFactored)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SizeThreadGrid(b, {256, 1024, 4096, 16384});
    });

// Identical reduced budget for both full-solve benchmarks: four
// accepted proximal steps, one CCCP round, no early exit.
CccpOptions BenchSolveOptions() {
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 4;
  options.inner.tol = 0.0;
  options.max_outer_iterations = 1;
  options.outer_tol = 0.0;
  return options;
}

void BM_SolveFactored(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SocialGraph g1 = BenchGraph(n);
  const SocialGraph g2 = BenchGraph(n);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  FactoredObjective objective;
  objective.a = g1.AdjacencyCsr();
  objective.grad_v =
      BuildIntimacyGradientCsr(BenchSparseTensor(g1, g2), 0.25, {}, {});
  objective.gamma = 0.3;
  objective.tau = 0.1;
  const CccpOptions options = BenchSolveOptions();
  const FactoredSolverOptions factored;  // rank 24 + 8 oversampling.
  for (auto _ : state) {
    auto s = SolveCccpFactored(objective, options, factored);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveFactored)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {256, 1024, 4096, 16384});
});

void BM_SolveDense(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SocialGraph g1 = BenchGraph(n);
  const SocialGraph g2 = BenchGraph(n);
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  Objective objective;
  objective.a = g1.AdjacencyCsr();
  objective.grad_v =
      BuildIntimacyGradientCsr(BenchSparseTensor(g1, g2), 0.25, {}, {})
          .ToDense();
  objective.gamma = 0.3;
  objective.tau = 0.1;
  const CccpOptions options = BenchSolveOptions();
  for (auto _ : state) {
    auto s = SolveCccp(objective, options);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveDense)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {64, 128, 256, 512});
});

void BM_Auc(benchmark::State& state) {
  Rng rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = rng.NextDouble();
    labels[i] = rng.NextBernoulli(0.2) ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAuc(scores, labels));
  }
}
BENCHMARK(BM_Auc)->Arg(1000)->Arg(10000);

void BM_GenerateBundle(benchmark::State& state) {
  for (auto _ : state) {
    AlignedGeneratorConfig config = DefaultExperimentConfig(11);
    config.population.num_personas =
        static_cast<std::size_t>(state.range(0));
    auto generated = GenerateAligned(config);
    benchmark::DoNotOptimize(generated);
  }
}
BENCHMARK(BM_GenerateBundle)->Arg(60)->Arg(120);

void BM_GenerateScaleOut(benchmark::State& state) {
  for (auto _ : state) {
    ScaleOutConfig config;
    config.num_users = static_cast<std::size_t>(state.range(0));
    config.seed = 11;
    auto generated = GenerateAlignedScaleOut(config);
    benchmark::DoNotOptimize(generated);
  }
}
BENCHMARK(BM_GenerateScaleOut)->Arg(10000)->Arg(100000);

void BM_PartitionGraph(benchmark::State& state) {
  ScaleOutConfig config;
  config.num_users = static_cast<std::size_t>(state.range(0));
  config.seed = 11;
  auto generated = GenerateAlignedScaleOut(config);
  const SocialGraph graph = SocialGraph::FromHeterogeneousNetwork(
      generated.value().networks.target());
  PartitionOptions options;
  options.max_cluster_size = 512;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionGraph(graph, options));
  }
}
BENCHMARK(BM_PartitionGraph)->Arg(10000)->Arg(100000);

// --- Quantized serving path (DESIGN.md §15) --------------------------
// Quantization cost (per-row affine fit + code emission), dequantized
// lookup cost against the float baseline, and top-K row builds straight
// off the u8 payload — the hot loops behind --quantize serving.

QuantizationBits BitsFromArg(std::int64_t bits) {
  return bits == 16 ? QuantizationBits::kU16 : QuantizationBits::kU8;
}

void BM_QuantizeRow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  const QuantizationBits bits = BitsFromArg(state.range(2));
  const Matrix s = RandomMatrix(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuantizedMatrix::FromMatrix(s, bits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeRow)
    ->ArgsProduct({{256, 1024}, {1, 4}, {8, 16}})
    ->ArgNames({"n", "threads", "bits"});

void BM_DequantScore(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const QuantizationBits bits = BitsFromArg(state.range(1));
  const QuantizedMatrix q =
      QuantizedMatrix::FromMatrix(RandomMatrix(n, 23), bits).value();
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) sum += q.At(i, j);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DequantScore)
    ->ArgsProduct({{256, 1024}, {8, 16}})
    ->ArgNames({"n", "bits"});

void BM_TopKQuantized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadCountGuard guard(static_cast<std::size_t>(state.range(1)));
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(RandomMatrix(n, 24));
  ArtifactQuantizerOptions options;
  options.bits = QuantizationBits::kU8;
  ScoringSession session = ScoringSession::FromArtifact(
                               QuantizeModelArtifact(std::move(artifact),
                                                     options)
                                   .value())
                               .value();
  std::size_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildTopKRowOrder(session, u));
    u = (u + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKQuantized)->Apply([](benchmark::internal::Benchmark* b) {
  SizeThreadGrid(b, {256, 1024});
});

}  // namespace
}  // namespace slampred

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // Handles --benchmark_out=... etc.
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "slampred_default_threads",
      std::to_string(slampred::ThreadPool::Global().num_threads()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
