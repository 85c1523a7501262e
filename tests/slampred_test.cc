// Tests for the SLAMPRED core model and its variants.

#include <gtest/gtest.h>

#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "eval/anchor_sampler.h"
#include "eval/link_split.h"
#include "eval/metrics.h"

namespace slampred {
namespace {

// Fast optimisation settings for tests.
CccpOptions FastOptimization() {
  CccpOptions options;
  options.inner.max_iterations = 40;
  options.max_outer_iterations = 2;
  return options;
}

class SlamPredTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AlignedGeneratorConfig config = DefaultExperimentConfig(31);
    config.population.num_personas = 120;
    auto gen = GenerateAligned(config);
    ASSERT_TRUE(gen.ok());
    generated_ = new GeneratedAligned(std::move(gen).value());
    full_graph_ = new SocialGraph(SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.target()));
    Rng rng(3);
    auto folds = SplitLinks(*full_graph_, 5, rng);
    ASSERT_TRUE(folds.ok());
    test_edges_ = new std::vector<UserPair>(folds.value()[0].test_edges);
    train_graph_ = new SocialGraph(
        full_graph_->WithEdgesRemoved(*test_edges_));
    auto eval = BuildEvaluationSet(*full_graph_, *test_edges_, 4.0, rng);
    ASSERT_TRUE(eval.ok());
    eval_ = new EvaluationSet(std::move(eval).value());
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete full_graph_;
    delete train_graph_;
    delete test_edges_;
    delete eval_;
    generated_ = nullptr;
  }

  static double AucOf(const SlamPred& model) {
    auto scores = model.ScorePairs(eval_->pairs);
    EXPECT_TRUE(scores.ok());
    return ComputeAuc(scores.value(), eval_->labels).value_or(0.0);
  }

  static GeneratedAligned* generated_;
  static SocialGraph* full_graph_;
  static SocialGraph* train_graph_;
  static std::vector<UserPair>* test_edges_;
  static EvaluationSet* eval_;
};

GeneratedAligned* SlamPredTest::generated_ = nullptr;
SocialGraph* SlamPredTest::full_graph_ = nullptr;
SocialGraph* SlamPredTest::train_graph_ = nullptr;
std::vector<UserPair>* SlamPredTest::test_edges_ = nullptr;
EvaluationSet* SlamPredTest::eval_ = nullptr;

TEST_F(SlamPredTest, VariantNames) {
  EXPECT_EQ(SlamPred().name(), "SLAMPRED");
  EXPECT_EQ(SlamPred(SlamPredTargetOnlyConfig()).name(), "SLAMPRED-T");
  EXPECT_EQ(SlamPred(SlamPredHomogeneousConfig()).name(), "SLAMPRED-H");
}

TEST_F(SlamPredTest, ScoreBeforeFitFails) {
  SlamPred model;
  EXPECT_FALSE(model.ScorePairs({{0, 1}}).ok());
}

TEST_F(SlamPredTest, FitProducesValidScoreMatrix) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const Matrix s = DenseScoreMatrix(*model.scores());
  EXPECT_EQ(s.rows(), generated_->networks.target().NumUsers());
  EXPECT_TRUE(s.IsSymmetric(1e-9));
  for (double v : s.data()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST_F(SlamPredTest, PredictsBetterThanRandom) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_GT(AucOf(model), 0.65);
}

TEST_F(SlamPredTest, FullModelBeatsHomogeneous) {
  SlamPredConfig full_config;
  full_config.optimization = FastOptimization();
  SlamPred full(full_config);
  ASSERT_TRUE(full.Fit(generated_->networks, *train_graph_).ok());

  SlamPredConfig h_config = SlamPredHomogeneousConfig();
  h_config.optimization = FastOptimization();
  SlamPred homogeneous(h_config);
  ASSERT_TRUE(homogeneous.Fit(generated_->networks, *train_graph_).ok());

  EXPECT_GT(AucOf(full), AucOf(homogeneous));
}

TEST_F(SlamPredTest, DeterministicGivenSeed) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred a(config);
  SlamPred b(config);
  ASSERT_TRUE(a.Fit(generated_->networks, *train_graph_).ok());
  ASSERT_TRUE(b.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_EQ(DenseScoreMatrix(*a.scores()), DenseScoreMatrix(*b.scores()));
}

TEST_F(SlamPredTest, UnalignedBundleEqualsTargetOnly) {
  Rng rng(5);
  const AlignedNetworks unaligned =
      WithAnchorRatio(generated_->networks, 0.0, rng);

  SlamPredConfig full_config;
  full_config.optimization = FastOptimization();
  SlamPred full(full_config);
  ASSERT_TRUE(full.Fit(unaligned, *train_graph_).ok());

  SlamPredConfig t_config = SlamPredTargetOnlyConfig();
  t_config.optimization = FastOptimization();
  SlamPred target_only(t_config);
  ASSERT_TRUE(target_only.Fit(generated_->networks, *train_graph_).ok());

  EXPECT_EQ(DenseScoreMatrix(*full.scores()),
            DenseScoreMatrix(*target_only.scores()));
}

TEST_F(SlamPredTest, TraceIsPopulated) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_GT(model.trace().steps.iterations, 0);
  EXPECT_EQ(model.trace().steps.s_norm_l1.size(),
            model.trace().steps.s_change_l1.size());
  EXPECT_GT(model.trace().outer_iterations, 0);
}

TEST_F(SlamPredTest, ScoreAccessor) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_DOUBLE_EQ(model.Score(0, 1).value(), model.scores()->At(0, 1));
}

TEST_F(SlamPredTest, ScoreBoundsChecked) {
  SlamPredConfig config;
  config.optimization = FastOptimization();
  SlamPred model(config);
  const std::size_t n = generated_->networks.target().NumUsers();
  EXPECT_EQ(model.Score(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_TRUE(model.Score(n - 1, 0).ok());
  EXPECT_EQ(model.Score(n, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(model.Score(0, n).status().code(), StatusCode::kOutOfRange);
  const auto batch = model.ScorePairs({{0, 1}, {n, 2}});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange);
  // The diagnostic names the offending pair, not just "out of range".
  EXPECT_NE(batch.status().message().find("pair 1"), std::string::npos);
}

TEST_F(SlamPredTest, MismatchedStructureRejected) {
  SlamPred model;
  SocialGraph wrong_size(3);
  EXPECT_FALSE(model.Fit(generated_->networks, wrong_size).ok());
}

TEST_F(SlamPredTest, HomogeneousUsesOnlyStructuralSlices) {
  SlamPredConfig config = SlamPredHomogeneousConfig();
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  // The raw target tensor alone: 6 structural slices, no attribute
  // slices.
  FeatureTensorOptions structural;
  structural.word_similarity = false;
  structural.location_similarity = false;
  structural.time_similarity = false;
  ASSERT_EQ(NumFeatures(structural), 6u);
  EXPECT_EQ(model.memory_stats().raw_tensor_nnz,
            BuildSparseFeatureTensor(generated_->networks.target(),
                                     *train_graph_, structural)
                .TotalNnz());
}

TEST_F(SlamPredTest, PassthroughAblationRuns) {
  SlamPredConfig config;
  config.domain_adaptation = false;
  config.optimization = FastOptimization();
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_GT(AucOf(model), 0.55);
}

TEST_F(SlamPredTest, ZeroIntimacyFallsBackToAdjacency) {
  SlamPredConfig config;
  config.alpha_target = 0.0;
  config.alpha_sources = {0.0};
  config.gamma = 0.0;
  config.tau = 0.0;
  config.optimization = FastOptimization();
  config.optimization.inner.max_iterations = 400;
  config.optimization.inner.theta = 0.05;
  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  // With no intimacy and no regularisation the optimum is S = A.
  EXPECT_LT((DenseScoreMatrix(*model.scores()) -
             train_graph_->AdjacencyMatrix()).MaxAbs(),
            0.05);
}

}  // namespace
}  // namespace slampred
