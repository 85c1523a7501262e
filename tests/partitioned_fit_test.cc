// Tests for the hierarchical partitioned solve end to end: the
// single-cluster regime must be bit-identical to the monolithic fit at
// every thread count, the multi-cluster regime must stay close in
// ranking quality, the sharded artifact must round-trip with checksums,
// serving (session dispatch, top-K merge) must score exactly what the
// fit produced, and the per-cluster fault site must drive the retry
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fit_report.h"
#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "eval/link_split.h"
#include "eval/metrics.h"
#include "serve/topk_index.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "score_forms.h"

namespace slampred {
namespace {

SlamPredConfig FastConfig() {
  SlamPredConfig config;
  config.optimization.inner.max_iterations = 40;
  config.optimization.max_outer_iterations = 2;
  return config;
}

// Partitioned variant: clusters capped small enough that the ~65-user
// test bundle splits into several clusters.
SlamPredConfig PartitionedConfig() {
  SlamPredConfig config = FastConfig();
  config.partition.mode = PartitionMode::kAuto;
  config.partition.max_cluster_size = 20;
  config.partition.min_cluster_size = 4;
  return config;
}

class PartitionedFitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AlignedGeneratorConfig gen_config = DefaultExperimentConfig(23);
    gen_config.population.num_personas = 90;
    auto gen = GenerateAligned(gen_config);
    ASSERT_TRUE(gen.ok());
    generated_ = new GeneratedAligned(std::move(gen).value());
    full_graph_ = new SocialGraph(SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.target()));
    Rng rng(29);
    auto folds = SplitLinks(*full_graph_, 5, rng);
    ASSERT_TRUE(folds.ok());
    test_edges_ = new std::vector<UserPair>(folds.value()[0].test_edges);
    train_graph_ = new SocialGraph(
        full_graph_->WithEdgesRemoved(*test_edges_));
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete full_graph_;
    delete train_graph_;
    delete test_edges_;
    generated_ = nullptr;
  }

  void TearDown() override { FaultInjector::Instance().Reset(); }

  static std::size_t NumUsers() {
    return generated_->networks.target().NumUsers();
  }

  // Scores every upper-triangle pair, in (u, v) order.
  static std::vector<double> AllPairScores(const SlamPred& model) {
    std::vector<UserPair> pairs;
    for (std::size_t u = 0; u < NumUsers(); ++u) {
      for (std::size_t v = u + 1; v < NumUsers(); ++v) pairs.push_back({u, v});
    }
    auto scores = model.ScorePairs(pairs);
    EXPECT_TRUE(scores.ok());
    return std::move(scores).value();
  }

  static GeneratedAligned* generated_;
  static SocialGraph* full_graph_;
  static SocialGraph* train_graph_;
  static std::vector<UserPair>* test_edges_;
};

GeneratedAligned* PartitionedFitTest::generated_ = nullptr;
SocialGraph* PartitionedFitTest::full_graph_ = nullptr;
SocialGraph* PartitionedFitTest::train_graph_ = nullptr;
std::vector<UserPair>* PartitionedFitTest::test_edges_ = nullptr;

TEST_F(PartitionedFitTest, SingleClusterRegimeIsBitExactAtEveryThreadCount) {
  SlamPred monolithic(FastConfig());
  ASSERT_TRUE(monolithic.Fit(generated_->networks, *train_graph_).ok());
  const std::vector<double> reference = AllPairScores(monolithic);

  // min = max = n forces the merge pass to consolidate everything into
  // one cluster, which must take the identity fast path.
  SlamPredConfig config = FastConfig();
  config.partition.mode = PartitionMode::kAuto;
  config.partition.max_cluster_size = NumUsers();
  config.partition.min_cluster_size = NumUsers();

  const std::size_t previous = ThreadPool::Global().num_threads();
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    SlamPred partitioned(config);
    ASSERT_TRUE(partitioned.Fit(generated_->networks, *train_graph_).ok())
        << threads << " threads";
    ASSERT_TRUE(partitioned.partitioned());
    ASSERT_EQ(partitioned.partition_stats().num_clusters, 1u)
        << threads << " threads";
    const std::vector<double> scores = AllPairScores(partitioned);
    ASSERT_EQ(scores.size(), reference.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i], reference[i])
          << "pair " << i << " at " << threads << " threads";
    }
  }
  ThreadPool::Global().Resize(previous);
}

TEST_F(PartitionedFitTest, MultiClusterFitIsThreadCountInvariant) {
  const std::size_t previous = ThreadPool::Global().num_threads();
  ThreadPool::Global().Resize(1);
  SlamPred reference_model(PartitionedConfig());
  ASSERT_TRUE(reference_model.Fit(generated_->networks, *train_graph_).ok());
  ASSERT_GT(reference_model.partition_stats().num_clusters, 1u);
  const std::vector<double> reference = AllPairScores(reference_model);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    SlamPred model(PartitionedConfig());
    ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
    const std::vector<double> scores = AllPairScores(model);
    ASSERT_EQ(scores.size(), reference.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i], reference[i])
          << "pair " << i << " at " << threads << " threads";
    }
  }
  ThreadPool::Global().Resize(previous);
}

// The multi-cluster equivalence check runs on a scale-out bundle large
// enough for a stable AUC, with the cluster-size cap aligned to the
// planted community scale — the regime the partitioned solve is for.
TEST(PartitionedRankingTest, MultiClusterRankingStaysCloseToMonolithic) {
  ScaleOutConfig gen_config;
  gen_config.num_users = 256;
  gen_config.num_communities = 4;
  gen_config.avg_degree = 10.0;
  gen_config.seed = 3;
  auto generated = GenerateAlignedScaleOut(gen_config);
  ASSERT_TRUE(generated.ok());
  const SocialGraph full_graph = SocialGraph::FromHeterogeneousNetwork(
      generated.value().networks.target());
  Rng split_rng(29);
  auto folds = SplitLinks(full_graph, 5, split_rng);
  ASSERT_TRUE(folds.ok());
  const std::vector<UserPair>& test_edges = folds.value()[0].test_edges;
  const SocialGraph train_graph =
      full_graph.WithEdgesRemoved(test_edges);

  SlamPred monolithic(FastConfig());
  ASSERT_TRUE(
      monolithic.Fit(generated.value().networks, train_graph).ok());

  SlamPredConfig config = FastConfig();
  config.partition.mode = PartitionMode::kAuto;
  config.partition.max_cluster_size = 80;
  SlamPred partitioned(config);
  ASSERT_TRUE(
      partitioned.Fit(generated.value().networks, train_graph).ok());
  ASSERT_GT(partitioned.partition_stats().num_clusters, 1u);

  // Held-out positives vs never-present pairs, one label vector for
  // both models.
  std::vector<UserPair> pairs(test_edges);
  std::vector<int> labels(pairs.size(), 1);
  Rng rng(31);
  while (labels.size() < 4 * test_edges.size()) {
    const auto u = static_cast<std::size_t>(
        rng.NextBounded(full_graph.num_users()));
    const auto v = static_cast<std::size_t>(
        rng.NextBounded(full_graph.num_users()));
    if (u == v || full_graph.HasEdge(u, v)) continue;
    pairs.push_back({u, v});
    labels.push_back(0);
  }
  auto mono_scores = monolithic.ScorePairs(pairs);
  auto part_scores = partitioned.ScorePairs(pairs);
  ASSERT_TRUE(mono_scores.ok());
  ASSERT_TRUE(part_scores.ok());
  auto mono_auc = ComputeAuc(mono_scores.value(), labels);
  auto part_auc = ComputeAuc(part_scores.value(), labels);
  ASSERT_TRUE(mono_auc.ok());
  ASSERT_TRUE(part_auc.ok());
  auto mono_prec = ComputePrecisionAtK(mono_scores.value(), labels, 100);
  auto part_prec = ComputePrecisionAtK(part_scores.value(), labels, 100);
  ASSERT_TRUE(mono_prec.ok());
  ASSERT_TRUE(part_prec.ok());
  // The per-cluster solves see less context and cross-cluster pairs are
  // rescored from neighboring factors, so some headroom is expected —
  // but the partitioned fit must stay predictive and in the monolithic
  // fit's neighbourhood.
  EXPECT_GT(mono_auc.value(), 0.7);
  EXPECT_GT(part_auc.value(), 0.65);
  EXPECT_NEAR(part_auc.value(), mono_auc.value(), 0.15);
  EXPECT_GT(part_prec.value(), 0.5 * mono_prec.value());
}

TEST_F(PartitionedFitTest, PartitionDiagnosticsAreReported) {
  SlamPred model(PartitionedConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  ASSERT_TRUE(model.partitioned());

  const PartitionStats& stats = model.partition_stats();
  EXPECT_GT(stats.num_clusters, 1u);
  EXPECT_LE(stats.max_cluster, 20u);
  EXPECT_EQ(stats.cluster_solve_seconds.size(), stats.num_clusters);
  EXPECT_GE(stats.refine_seconds, 0.0);
  EXPECT_GE(model.phase_times().partition_seconds, 0.0);

  const FitReport report = MakeFitReport(model);
  EXPECT_TRUE(report.partitioned);
  const std::string json = FitReportJson(report);
  for (const char* key :
       {"\"partitioned\":true", "\"partition\"", "\"num_clusters\"",
        "\"cut_edge_fraction\"", "\"size_histogram\"",
        "\"cluster_solve_seconds\"", "\"partition_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST_F(PartitionedFitTest, ShardedArtifactRoundTripsExactly) {
  SlamPred model(PartitionedConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(model);
  ASSERT_TRUE(artifact.ok());
  ASSERT_NE(ShardedOf(artifact.value().scores), nullptr);

  const std::string bytes = SerializeModelArtifact(artifact.value());
  auto loaded = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardedScores* shards = ShardedOf(loaded.value().scores);
  ASSERT_NE(shards, nullptr);
  // Sharded-ness is inferred from the sections at load time.
  EXPECT_EQ(loaded.value().config.partition.mode, PartitionMode::kAuto);
  EXPECT_EQ(shards->num_shards(), ShardedOf(model.scores())->num_shards());

  for (std::size_t u = 0; u < NumUsers(); ++u) {
    for (std::size_t v = 0; v < NumUsers(); ++v) {
      ASSERT_EQ(shards->At(u, v), model.Score(u, v).value())
          << u << "," << v;
    }
  }
}

TEST_F(PartitionedFitTest, ShardedArtifactDetectsCorruption) {
  SlamPred model(PartitionedConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(model);
  ASSERT_TRUE(artifact.ok());
  std::string bytes = SerializeModelArtifact(artifact.value());
  // Flip one bit deep inside the shard payload region; the section
  // CRC-32 must reject the load.
  bytes[2 * bytes.size() / 3] ^= 0x40;
  auto loaded = DeserializeModelArtifact(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(PartitionedFitTest, ShardedSessionServesWithoutDensifying) {
  SlamPredConfig config = PartitionedConfig();
  config.solver_backend = SolverBackend::kFactored;
  config.factored.rank = 8;
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(model);
  ASSERT_TRUE(artifact.ok());
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_NE(ShardedOf(session.value().artifact().scores), nullptr);
  // The serve path must not materialise a dense n x n matrix.
  EXPECT_EQ(StoredAs<Matrix>(session.value().artifact().scores), nullptr);
  EXPECT_EQ(session.value().num_users(), NumUsers());

  std::vector<double> row;
  for (std::size_t u = 0; u < NumUsers(); ++u) {
    session.value().RowScores(u, row);
    ASSERT_EQ(row.size(), NumUsers());
    for (std::size_t v = 0; v < NumUsers(); ++v) {
      ASSERT_EQ(row[v], model.Score(u, v).value()) << u << "," << v;
      ASSERT_EQ(session.value().ScoreUnchecked(u, v),
                model.Score(u, v).value());
    }
  }
}

TEST_F(PartitionedFitTest, FactoredSessionServesFromFactors) {
  SlamPredConfig config = FastConfig();
  config.solver_backend = SolverBackend::kFactored;
  config.factored.rank = 8;
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(model);
  ASSERT_TRUE(artifact.ok());
  const FactoredMatrix* low_rank =
      StoredAs<FactoredMatrix>(artifact.value().scores);
  ASSERT_NE(low_rank, nullptr);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());
  // Regression guard: loading a factored artifact once densified U·Vᵀ;
  // the session must keep the factors and score through them.
  EXPECT_EQ(StoredAs<FactoredMatrix>(session.value().artifact().scores),
            low_rank);
  for (std::size_t u = 0; u < NumUsers(); u += 7) {
    for (std::size_t v = 0; v < NumUsers(); v += 3) {
      ASSERT_EQ(session.value().ScoreUnchecked(u, v), low_rank->At(u, v));
    }
  }
}

TEST_F(PartitionedFitTest, ShardedTopKOrderMatchesBruteForce) {
  SlamPred model(PartitionedConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(model);
  ASSERT_TRUE(artifact.ok());
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());

  std::vector<double> row;
  for (std::size_t u = 0; u < NumUsers(); u += 5) {
    const TopKRowOrder order = BuildTopKRowOrder(session.value(), u);
    ASSERT_EQ(order.size(), NumUsers() - 1);

    session.value().RowScores(u, row);
    std::vector<std::uint32_t> expected;
    for (std::size_t v = 0; v < NumUsers(); ++v) {
      if (v != u) expected.push_back(static_cast<std::uint32_t>(v));
    }
    std::sort(expected.begin(), expected.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (row[a] != row[b]) return row[a] > row[b];
                return a < b;
              });
    ASSERT_EQ(order, expected) << "row " << u;
  }
}

TEST_F(PartitionedFitTest, ClusterFaultIsRetriedOnce) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fit.cluster", spec);

  SlamPred model(PartitionedConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_EQ(FaultInjector::Instance().TriggerCount("fit.cluster"), 1);
  // The retried cluster is accounted as a checkpoint resume.
  EXPECT_GE(model.trace().recovery.checkpoint_resumes, 1u);
}

TEST_F(PartitionedFitTest, PersistentClusterFaultFailsWithDiagnosis) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.max_triggers = -1;  // Every attempt, retry included.
  FaultInjector::Instance().Arm("fit.cluster", spec);

  SlamPred model(PartitionedConfig());
  const Status status = model.Fit(generated_->networks, *train_graph_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotConverged);
  EXPECT_NE(status.message().find("cluster"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(model.partitioned());
}

TEST_F(PartitionedFitTest, FailedRefitKeepsServingThePreviousFit) {
  SlamPredConfig config = PartitionedConfig();
  config.solver_backend = SolverBackend::kFactored;
  config.factored.rank = 8;
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const std::vector<double> before = AllPairScores(model);
  ASSERT_GT(model.memory_stats().iterate_bytes, 0u);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  FaultInjector::Instance().Arm("fit.solve", spec);
  ASSERT_FALSE(model.Fit(generated_->networks, *train_graph_).ok());
  // The stats describe the failed run, which never reached the solve...
  EXPECT_EQ(model.memory_stats().iterate_bytes, 0u);
  // ...while scoring still answers from the previous, successful fit.
  ASSERT_TRUE(model.fitted());
  EXPECT_TRUE(model.partitioned());
  EXPECT_EQ(model.NumUsersFitted(), NumUsers());
  EXPECT_EQ(AllPairScores(model), before);
}

}  // namespace
}  // namespace slampred
