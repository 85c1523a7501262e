// Tests for the staged fit pipeline: stage configuration for the -T/-H
// variants, the embedding stage's one rule (raw target, adapted
// sources), stage-by-stage execution on a shared FitContext,
// equivalence with SlamPred::Fit, the fit-stats invariants, and the
// per-stage fault-injection sites.

#include <gtest/gtest.h>

#include "core/fit_pipeline.h"
#include "core/fit_report.h"
#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "eval/link_split.h"
#include "score_forms.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

SlamPredConfig FastConfig() {
  SlamPredConfig config;
  config.optimization.inner.max_iterations = 40;
  config.optimization.max_outer_iterations = 2;
  return config;
}

class FitPipelineTest : public ::testing::Test {
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
    train_graph_ = new SocialGraph(
        full_graph_->WithEdgesRemoved(folds.value()[0].test_edges));
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete full_graph_;
    delete train_graph_;
    generated_ = nullptr;
  }

  void TearDown() override { FaultInjector::Instance().Reset(); }

  static FitContext MakeContext() {
    FitContext context;
    context.networks = &generated_->networks;
    context.target_structure = train_graph_;
    return context;
  }

  static GeneratedAligned* generated_;
  static SocialGraph* full_graph_;
  static SocialGraph* train_graph_;
};

GeneratedAligned* FitPipelineTest::generated_ = nullptr;
SocialGraph* FitPipelineTest::full_graph_ = nullptr;
SocialGraph* FitPipelineTest::train_graph_ = nullptr;

TEST_F(FitPipelineTest, PipelineHasTheThreeStagesInOrder) {
  const auto stages = BuildFitPipeline(FastConfig());
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_STREQ(stages[0]->name(), "features");
  EXPECT_STREQ(stages[1]->name(), "embedding");
  EXPECT_STREQ(stages[2]->name(), "solve");
}

TEST_F(FitPipelineTest, VariantsAreStageConfiguration) {
  FitContext full = MakeContext();
  ASSERT_TRUE(FeatureStage(SlamPredConfig{}).Run(full).ok());
  EXPECT_TRUE(full.transfer);
  EXPECT_TRUE(full.feature_options.word_similarity);
  EXPECT_TRUE(full.feature_options.location_similarity);
  EXPECT_TRUE(full.feature_options.time_similarity);

  FitContext t = MakeContext();
  ASSERT_TRUE(FeatureStage(SlamPredTargetOnlyConfig()).Run(t).ok());
  EXPECT_FALSE(t.transfer);
  EXPECT_EQ(t.raw_tensors.size(), 1u);
  EXPECT_TRUE(t.feature_options.word_similarity);

  FitContext h = MakeContext();
  ASSERT_TRUE(FeatureStage(SlamPredHomogeneousConfig()).Run(h).ok());
  EXPECT_FALSE(h.transfer);
  // -H drops the attribute slices from the extraction plan itself.
  EXPECT_FALSE(h.feature_options.word_similarity);
  EXPECT_FALSE(h.feature_options.location_similarity);
  EXPECT_FALSE(h.feature_options.time_similarity);
  EXPECT_EQ(h.raw_tensors[0].dim0(), NumFeatures(h.feature_options));
}

// The embedding stage's one rule, over every way a fit reaches it:
// adapted_tensors[0] is the target tensor FeatureStage built, bit for
// bit, and each transferred source follows in target coordinates with
// latent_dim slices (Theorem 1) or its raw slice count (passthrough).
struct EmbeddingCase {
  const char* name;
  SlamPredConfig config;
  bool strip_anchors = false;
  bool transfers = true;
};

// Names the case in test output (and so in the ctest test names).
void PrintTo(const EmbeddingCase& c, std::ostream* os) { *os << c.name; }

class EmbeddingStageRuleTest
    : public FitPipelineTest,
      public ::testing::WithParamInterface<EmbeddingCase> {};

std::string TensorBytes(const SparseTensor3& tensor) {
  BinaryWriter writer;
  tensor.Serialize(writer);
  return writer.TakeBuffer();
}

TEST_P(EmbeddingStageRuleTest, TargetStaysRawAndSourcesAreAdapted) {
  const EmbeddingCase& c = GetParam();
  const AlignedNetworks& full = generated_->networks;
  FitContext context = MakeContext();
  AlignedNetworks unanchored(full.target());
  if (c.strip_anchors) {
    unanchored.AddSource(full.source(0),
                         AnchorLinks(full.target().NumUsers(),
                                     full.source(0).NumUsers()));
    context.networks = &unanchored;
  }

  ASSERT_TRUE(FeatureStage(c.config).Run(context).ok());
  ASSERT_EQ(context.transfer, c.transfers);
  const std::string target = TensorBytes(context.raw_tensors[0]);
  std::vector<std::size_t> raw_slices;
  for (const SparseTensor3& tensor : context.raw_tensors) {
    raw_slices.push_back(tensor.dim0());
  }
  ASSERT_TRUE(EmbeddingStage(c.config).Run(context).ok());

  const std::size_t sources = c.transfers ? full.num_sources() : 0;
  ASSERT_EQ(context.adapted_tensors.size(), 1 + sources);
  EXPECT_EQ(TensorBytes(context.adapted_tensors[0]), target);
  const std::size_t n = full.target().NumUsers();
  for (std::size_t k = 1; k <= sources; ++k) {
    const SparseTensor3& source = context.adapted_tensors[k];
    EXPECT_EQ(source.dim0(), c.config.domain_adaptation
                                 ? c.config.latent_dim
                                 : raw_slices[k]);
    EXPECT_EQ(source.dim1(), n);
    EXPECT_EQ(source.dim2(), n);
  }
}

SlamPredConfig PassthroughConfig() {
  SlamPredConfig config = FastConfig();
  config.domain_adaptation = false;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EmbeddingStageRuleTest,
    ::testing::Values(
        EmbeddingCase{"TheoremOne", FastConfig()},
        EmbeddingCase{"Passthrough", PassthroughConfig()},
        EmbeddingCase{"NoAnchors", FastConfig(), /*strip_anchors=*/true,
                      /*transfers=*/false},
        EmbeddingCase{"Homogeneous", SlamPredHomogeneousConfig(),
                      /*strip_anchors=*/false, /*transfers=*/false}));

TEST_F(FitPipelineTest, StagesRunIndividuallyOnASharedContext) {
  const SlamPredConfig config = FastConfig();
  FitContext context = MakeContext();

  FeatureStage features(config);
  ASSERT_TRUE(features.Run(context).ok());
  EXPECT_TRUE(context.transfer);
  // Target tensor plus one per source network.
  ASSERT_EQ(context.raw_tensors.size(),
            1 + generated_->networks.num_sources());
  EXPECT_GT(context.raw_tensors[0].TotalNnz(), 0u);

  EmbeddingStage embedding(config);
  ASSERT_TRUE(embedding.Run(context).ok());
  ASSERT_EQ(context.adapted_tensors.size(), context.raw_tensors.size());

  SolveStage solve(config);
  ASSERT_TRUE(solve.Run(context).ok());
  const Matrix* s = StoredAs<Matrix>(context.scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rows(), generated_->networks.target().NumUsers());
  EXPECT_GT(context.trace.steps.iterations, 0);
}

TEST_F(FitPipelineTest, EmbeddingStageRequiresFeatureOutput) {
  FitContext context = MakeContext();
  const Status status = EmbeddingStage(FastConfig()).Run(context);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FitPipelineTest, SolveStageRequiresEmbeddingOutput) {
  FitContext context = MakeContext();
  SolveStage solve(FastConfig());
  const Status status = solve.Run(context);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FitPipelineTest, PipelineMatchesSlamPredFit) {
  const SlamPredConfig config = FastConfig();
  FitContext context = MakeContext();
  ASSERT_TRUE(RunFitPipeline(BuildFitPipeline(config), context).ok());

  SlamPred model(config);
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const Matrix* s = StoredAs<Matrix>(context.scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, DenseScoreMatrix(*model.scores()));
}

TEST_F(FitPipelineTest, RunValidatesInputs) {
  const auto stages = BuildFitPipeline(FastConfig());
  FitContext no_inputs;
  EXPECT_FALSE(RunFitPipeline(stages, no_inputs).ok());

  SocialGraph wrong_size(3);
  FitContext mismatched = MakeContext();
  mismatched.target_structure = &wrong_size;
  const Status status = RunFitPipeline(stages, mismatched);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FitPipelineTest, StatsInvariantsHold) {
  SlamPred model(FastConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());

  const FitMemoryStats& mem = model.memory_stats();
  EXPECT_GT(mem.adjacency_bytes, 0u);
  EXPECT_GT(mem.raw_tensor_bytes, 0u);
  EXPECT_GT(mem.adapted_tensor_bytes, 0u);
  // Aᵗ stores both directions of every training edge.
  EXPECT_EQ(mem.adjacency_nnz, 2 * train_graph_->num_edges());
  EXPECT_GT(mem.iterate_bytes, 0u);

  const FitPhaseTimes& times = model.phase_times();
  EXPECT_GE(times.features_seconds, 0.0);
  EXPECT_GE(times.embedding_seconds, 0.0);
  EXPECT_GE(times.cccp_seconds, 0.0);
  EXPECT_GE(times.svd_seconds, 0.0);
  EXPECT_GE(times.total_seconds, times.features_seconds +
                                     times.embedding_seconds +
                                     times.cccp_seconds);
}

TEST_F(FitPipelineTest, StatsResetOnSecondFit) {
  SlamPred model(FastConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const FitMemoryStats first = model.memory_stats();
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const FitMemoryStats& second = model.memory_stats();
  // Identical data shapes: a second fit re-measures the same footprint.
  // Were the counters accumulated instead of reset, every field would
  // double.
  EXPECT_EQ(second.raw_tensor_nnz, first.raw_tensor_nnz);
  EXPECT_EQ(second.raw_tensor_bytes, first.raw_tensor_bytes);
  EXPECT_EQ(second.adapted_tensor_nnz, first.adapted_tensor_nnz);
  EXPECT_EQ(second.adapted_tensor_bytes, first.adapted_tensor_bytes);
  EXPECT_EQ(second.adjacency_nnz, first.adjacency_nnz);
  EXPECT_EQ(second.adjacency_bytes, first.adjacency_bytes);
  EXPECT_EQ(second.iterate_bytes, first.iterate_bytes);
}

TEST_F(FitPipelineTest, FailedFitStillResetsStats) {
  SlamPred model(FastConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  ASSERT_GT(model.memory_stats().raw_tensor_bytes, 0u);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  FaultInjector::Instance().Arm("fit.features", spec);
  ASSERT_FALSE(model.Fit(generated_->networks, *train_graph_).ok());
  // The failed run's (empty) stats replace the previous run's — stats
  // always describe the most recent Fit call.
  EXPECT_EQ(model.memory_stats().raw_tensor_bytes, 0u);
  EXPECT_EQ(model.memory_stats().iterate_bytes, 0u);
}

TEST_F(FitPipelineTest, EachStageIsFaultInjectable) {
  struct Case {
    const char* site;
    FaultKind kind;
    StatusCode expected;
  };
  const Case cases[] = {
      {"fit.features", FaultKind::kFailNotConverged,
       StatusCode::kNotConverged},
      {"fit.embedding", FaultKind::kFailNumerical,
       StatusCode::kNumericalError},
      {"fit.solve", FaultKind::kPoisonNaN, StatusCode::kNumericalError},
  };
  for (const Case& c : cases) {
    FaultInjector::Instance().Reset();
    FaultSpec spec;
    spec.kind = c.kind;
    FaultInjector::Instance().Arm(c.site, spec);
    SlamPred model(FastConfig());
    const Status status = model.Fit(generated_->networks, *train_graph_);
    ASSERT_FALSE(status.ok()) << c.site;
    EXPECT_EQ(status.code(), c.expected) << c.site;
    // The diagnosis names the failing stage.
    EXPECT_NE(status.message().find("fit stage"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(FaultInjector::Instance().TriggerCount(c.site), 1) << c.site;
  }
}

TEST_F(FitPipelineTest, SkippingTheEmbeddingStageIsAConfiguredPipeline) {
  // A two-stage pipeline (features -> solve) over raw tensors is a
  // legal configuration: the solve stage consumes whatever adapted
  // tensors the context holds, so tests and ablations can splice
  // stages freely.
  const SlamPredConfig config = FastConfig();
  FitContext context = MakeContext();
  FeatureStage features(config);
  ASSERT_TRUE(features.Run(context).ok());
  context.adapted_tensors = context.raw_tensors;  // Hand-built adaption.
  SolveStage solve(config);
  ASSERT_TRUE(solve.Run(context).ok());
  const Matrix* s = StoredAs<Matrix>(context.scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rows(), generated_->networks.target().NumUsers());
}

TEST_F(FitPipelineTest, FitReportJsonContainsEveryBlock) {
  SlamPred model(FastConfig());
  ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
  const std::string json = FitReportJson(MakeFitReport(model));
  for (const char* key :
       {"\"threads\"", "\"phase_times\"", "\"total_seconds\"",
        "\"memory_stats\"", "\"adapted_tensor_nnz\"", "\"iterate_bytes\"",
        "\"recovery\"", "\"total\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace slampred
