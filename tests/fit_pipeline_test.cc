// Tests for the staged fit pipeline: stage configuration for the -T/-H
// variants, the embedding stage's one rule (G from the raw target and
// the adapted sources), stage-by-stage execution on a shared
// FitContext, equivalence with SlamPred::Fit, the fit-stats invariants,
// and the per-stage fault-injection sites.

#include <cstring>

#include <gtest/gtest.h>

#include "core/fit_pipeline.h"
#include "core/fit_report.h"
#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "embedding/domain_adapter.h"
#include "eval/link_split.h"
#include "optim/objective.h"
#include "score_forms.h"
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

// The embedding stage's one rule, over every way a fit reaches it: G
// is the raw target tensor FeatureStage built plus one slice sum per
// transferred source, each weighted by α over its slice count, and
// equals the dense Tensor3 oracle BuildIntimacyGradient bit for bit.
// The raw tensors are released once G exists.
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

// Dense oracle of the passthrough re-index: covered pairs copy the
// source slices, uncovered off-diagonal pairs take the per-slice
// covered mean, and nothing transfers without anchors.
Tensor3 DenseReindex(const Tensor3& source, const AnchorLinks& anchors,
                     std::size_t n) {
  Tensor3 out(source.dim0(), n, n);
  std::vector<double> sum(source.dim0(), 0.0);
  std::size_t covered = 0;
  for (std::size_t ti = 0; ti < n; ++ti) {
    const auto si = anchors.RightOf(ti);
    if (!si.has_value()) continue;
    for (std::size_t tj = 0; tj < n; ++tj) {
      const auto sj = anchors.RightOf(tj);
      if (tj == ti || !sj.has_value()) continue;
      ++covered;
      for (std::size_t d = 0; d < source.dim0(); ++d) {
        out(d, ti, tj) = source(d, *si, *sj);
        sum[d] += out(d, ti, tj);
      }
    }
  }
  if (covered == 0) return out;
  for (std::size_t ti = 0; ti < n; ++ti) {
    for (std::size_t tj = 0; tj < n; ++tj) {
      if (tj == ti || (anchors.RightOf(ti).has_value() &&
                       anchors.RightOf(tj).has_value())) {
        continue;
      }
      for (std::size_t d = 0; d < source.dim0(); ++d) {
        out(d, ti, tj) = sum[d] / static_cast<double>(covered);
      }
    }
  }
  return out;
}

// One n x n slice holding `m` (a slice sum) as a dense oracle input.
Tensor3 AsSlice(const CsrMatrix& m) {
  Tensor3 out(1, m.rows(), m.cols());
  out.SetSlice(0, m.ToDense());
  return out;
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
  const std::size_t n = full.target().NumUsers();
  const double scale = kIntimacyScale;
  std::vector<Tensor3> tensors = {context.raw_tensors[0].ToDense()};
  std::vector<double> weights = {c.config.alpha_target * scale /
                                 tensors[0].dim0()};
  if (c.transfers) {
    if (c.config.domain_adaptation) {
      // The adapter's own tests pin its slice sum; here it is an input.
      DomainAdapterOptions options;
      options.projection.mu = c.config.mu;
      options.projection.latent_dim = c.config.latent_dim;
      Rng rng(c.config.seed);
      auto adapted = AdaptDomains(full, *train_graph_, context.raw_tensors,
                                  options, rng);
      ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
      tensors.push_back(AsSlice(adapted.value().slice_sums[0]));
      weights.push_back(scale / c.config.latent_dim);
    } else {
      const Tensor3 raw_source = context.raw_tensors[1].ToDense();
      tensors.push_back(DenseReindex(raw_source, full.anchors(0), n));
      weights.push_back(scale / raw_source.dim0());
    }
  }

  ASSERT_TRUE(EmbeddingStage(c.config).Run(context).ok());
  EXPECT_TRUE(context.raw_tensors.empty());
  const Matrix g = context.intimacy_gradient.ToDense();
  const Matrix oracle = BuildIntimacyGradient(tensors, weights, n);
  ASSERT_EQ(g.rows(), n);
  ASSERT_EQ(g.cols(), n);
  EXPECT_EQ(std::memcmp(g.data().data(), oracle.data().data(),
                        g.data().size() * sizeof(double)),
            0);
  EXPECT_EQ(context.memory_stats.adapted_tensor_nnz,
            context.intimacy_gradient.nnz());
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
        EmbeddingCase{"TargetOnly", SlamPredTargetOnlyConfig(),
                      /*strip_anchors=*/false, /*transfers=*/false},
        EmbeddingCase{"NoAnchors", FastConfig(), /*strip_anchors=*/true,
                      /*transfers=*/false},
        EmbeddingCase{"Homogeneous", SlamPredHomogeneousConfig(),
                      /*strip_anchors=*/false, /*transfers=*/false}));

// G = Σ weighted slice sums of symmetric maps is symmetric bit for bit
// (each entry's terms arrive in the same order from either side), which
// lets the factored solver apply Z = 2A + G in place of Zᵀ. Pinned on
// the default `generate` bundle, the fit-paper population (with and
// without Theorem-1 adaptation) and an n=1500 scale-out bundle.
TEST(EmbeddingStageSymmetryTest, GradientIsBitwiseSymmetric) {
  struct Bundle {
    const char* name;
    AlignedNetworks networks;
    SlamPredConfig config;
  };
  std::vector<Bundle> bundles;
  auto aligned = [](std::size_t personas) {
    AlignedGeneratorConfig config = DefaultExperimentConfig(42);
    if (personas > 0) config.population.num_personas = personas;
    auto gen = GenerateAligned(config);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
    return std::move(gen).value().networks;
  };
  SlamPredConfig passthrough;
  passthrough.domain_adaptation = false;
  bundles.push_back({"generate", aligned(0), SlamPredConfig{}});
  bundles.push_back({"fit-paper", aligned(800), SlamPredConfig{}});
  bundles.push_back({"fit-paper passthrough", aligned(800), passthrough});
  ScaleOutConfig scale_out;
  scale_out.num_users = 1500;
  auto gen = GenerateAlignedScaleOut(scale_out);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  bundles.push_back(
      {"scale-out", std::move(gen).value().networks, SlamPredConfig{}});

  for (const Bundle& bundle : bundles) {
    const SocialGraph structure =
        SocialGraph::FromHeterogeneousNetwork(bundle.networks.target());
    FitContext context;
    context.networks = &bundle.networks;
    context.target_structure = &structure;
    ASSERT_TRUE(FeatureStage(bundle.config).Run(context).ok()) << bundle.name;
    ASSERT_TRUE(EmbeddingStage(bundle.config).Run(context).ok())
        << bundle.name;
    const CsrMatrix& g = context.intimacy_gradient;
    ASSERT_GT(g.nnz(), 0u) << bundle.name;
    const CsrMatrix gt = g.Transposed();
    EXPECT_EQ(g.row_ptr(), gt.row_ptr()) << bundle.name;
    EXPECT_EQ(g.col_idx(), gt.col_idx()) << bundle.name;
    ASSERT_EQ(g.values().size(), gt.values().size()) << bundle.name;
    EXPECT_EQ(std::memcmp(g.values().data(), gt.values().data(),
                          g.values().size() * sizeof(double)),
              0)
        << bundle.name;
  }
}

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
  EXPECT_TRUE(context.raw_tensors.empty());
  EXPECT_GT(context.intimacy_gradient.nnz(), 0u);

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
  // A two-stage pipeline (features -> solve) over a hand-built G is a
  // legal configuration: the solve stage consumes whatever gradient the
  // context holds, so tests and ablations can splice stages freely.
  const SlamPredConfig config = FastConfig();
  FitContext context = MakeContext();
  FeatureStage features(config);
  ASSERT_TRUE(features.Run(context).ok());
  context.intimacy_gradient =
      BuildIntimacyGradientCsr(context.raw_tensors[0], 1.0, {}, {});
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
