// Tests for the factored low-rank solver backend: the CSR intimacy
// gradient against the dense builder bit for bit, the dense-vs-factored
// equivalence gate (matched regime: γ = 0, no box projection, full-rank
// sketch), bit-identical factored solves at 1, 2 and 7 threads,
// identical ranking metrics on a seed-style experiment, and the
// "prox.factored" / "svd.prox" / "fb.grad_step" injection suites
// covering the guardrail chain on the new backend.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/slampred.h"
#include "datagen/aligned_generator.h"
#include "eval/anchor_sampler.h"
#include "eval/link_split.h"
#include "eval/metrics.h"
#include "linalg/csr_matrix.h"
#include "linalg/factored_matrix.h"
#include "linalg/matrix.h"
#include "linalg/sparse_tensor3.h"
#include "optim/cccp.h"
#include "optim/factored_solver.h"
#include "optim/objective.h"
#include "score_forms.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

#if SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_REQUIRE_INJECTION()
#else
#define SLAMPRED_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

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

// A symmetric sparse non-negative "adjacency" on n users.
CsrMatrix TestAdjacency(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t e = 0; e < n * 3; ++e) {
    const std::size_t i = rng.NextBounded(n);
    const std::size_t j = rng.NextBounded(n);
    if (i == j) continue;
    a(i, j) = 1.0;
    a(j, i) = 1.0;
  }
  return CsrMatrix::FromDense(a);
}

// A small non-negative symmetric G, dense and CSR twins.
Matrix TestGradient(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.NextDouble() < 0.3) {
        const double v = 0.2 * rng.NextDouble();
        g(i, j) = v;
        g(j, i) = v;
      }
    }
  }
  return g;
}

// The matched regime where the factored path computes exactly what the
// dense path computes (up to rounding): γ = 0 (no entry-wise ℓ₁ prox),
// no box projection, tol = 0 so both run the full iteration budget.
CccpOptions MatchedOptions() {
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 40;
  options.inner.tol = 0.0;
  options.inner.project_unit_box = false;
  options.max_outer_iterations = 2;
  options.outer_tol = 0.0;
  return options;
}

// Full-rank sketch: the range finder spans the whole space, so the
// factored prox equals the dense prox to rounding.
FactoredSolverOptions FullRankSketch(std::size_t n) {
  FactoredSolverOptions factored;
  factored.rank = n;
  factored.oversampling = 0;
  return factored;
}

constexpr std::size_t kN = 24;

TEST(FactoredSolverTest, IntimacyGradientCsrMatchesDenseBitForBit) {
  const std::size_t n = 19;
  Rng rng(5);
  std::vector<Tensor3> tensors;
  for (std::size_t k = 0; k < 2; ++k) {
    Tensor3 dense(3, n, n);
    for (double& v : dense.data()) {
      const double gauss = rng.NextGaussian();
      if (rng.NextDouble() < 0.2) v = std::abs(gauss);
    }
    tensors.push_back(std::move(dense));
  }
  const std::vector<double> weights = {0.7, 1.3};

  // The second network enters the CSR builder as its slice sum, the
  // form the domain adapter returns for a source.
  const Matrix dense_g = BuildIntimacyGradient(tensors, weights, n);
  const CsrMatrix csr_g = BuildIntimacyGradientCsr(
      SparseTensor3::FromDense(tensors[0]), weights[0],
      {CsrMatrix::FromDense(tensors[1].SumSlices())}, {weights[1]});
  const Matrix csr_dense = csr_g.ToDense();
  ASSERT_EQ(csr_dense.rows(), n);
  for (std::size_t i = 0; i < dense_g.data().size(); ++i) {
    EXPECT_EQ(csr_dense.data()[i], dense_g.data()[i]) << "flat index " << i;
  }
}

TEST(FactoredSolverTest, FactoredApproximationRecoversSparseMatrix) {
  const CsrMatrix a = TestAdjacency(kN, 7);
  auto s0 = FactoredApproximation(a, FullRankSketch(kN));
  ASSERT_TRUE(s0.ok()) << s0.status().ToString();
  EXPECT_LT((s0.value().ToDense() - a.ToDense()).MaxAbs(), 1e-8);
}

TEST(FactoredSolverTest, MatchedRegimeMatchesDenseOracle) {
  Objective dense;
  dense.a = TestAdjacency(kN, 11);
  dense.grad_v = TestGradient(kN, 12);
  dense.gamma = 0.0;
  dense.tau = 0.5;

  FactoredObjective factored;
  factored.a = dense.a;
  factored.grad_v = CsrMatrix::FromDense(dense.grad_v);
  factored.gamma = 0.0;
  factored.tau = 0.5;

  const CccpOptions options = MatchedOptions();
  CccpTrace dense_trace;
  auto dense_s = SolveCccp(dense, options, &dense_trace);
  ASSERT_TRUE(dense_s.ok()) << dense_s.status().ToString();

  CccpTrace factored_trace;
  auto factored_s = SolveCccpFactored(factored, options, FullRankSketch(kN),
                                      &factored_trace);
  ASSERT_TRUE(factored_s.ok()) << factored_s.status().ToString();

  // Same fixed point entry-wise...
  EXPECT_LT((factored_s.value().ToDense() - dense_s.value()).MaxAbs(), 1e-6);
  EXPECT_EQ(factored_trace.outer_iterations, dense_trace.outer_iterations);

  // ...and the same objective value (the densified factored iterate
  // under the dense evaluator — the trajectory gate).
  const std::vector<Tensor3> no_tensors;
  const std::vector<double> no_weights;
  const double dense_value =
      FullObjectiveValue(dense, dense_s.value(), no_tensors, no_weights);
  const double factored_value = FullObjectiveValue(
      dense, factored_s.value().ToDense(), no_tensors, no_weights);
  EXPECT_NEAR(factored_value, dense_value, 1e-6 * (1.0 + std::abs(dense_value)));
}

TEST(FactoredSolverTest, FactoredSolveIsBitIdenticalAcrossThreadCounts) {
  FactoredObjective objective;
  objective.a = TestAdjacency(31, 21);
  objective.grad_v = CsrMatrix::FromDense(TestGradient(31, 22));
  objective.gamma = 0.1;
  objective.tau = 0.5;

  CccpOptions options = MatchedOptions();
  options.inner.max_iterations = 20;

  FactoredSolverOptions factored;
  factored.rank = 8;
  factored.oversampling = 4;

  ThreadPool::Global().Resize(1);
  auto reference = SolveCccpFactored(objective, options, factored);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ForEachThreadCount([&](std::size_t threads) {
    auto s = SolveCccpFactored(objective, options, factored);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s.value().u().data(), reference.value().u().data())
        << "U at " << threads << " threads";
    EXPECT_EQ(s.value().v().data(), reference.value().v().data())
        << "V at " << threads << " threads";
  });
}

// ---------------------------------------------------------------------
// Seed-experiment metric equivalence: dense and factored fits of the
// same bundle in the matched regime must rank links identically.

class FactoredMetricsTest : public ::testing::Test {
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
    train_graph_ = new SocialGraph(
        full_graph_->WithEdgesRemoved(folds.value()[0].test_edges));
    auto eval = BuildEvaluationSet(*full_graph_, folds.value()[0].test_edges,
                                   4.0, rng);
    ASSERT_TRUE(eval.ok());
    eval_ = new EvaluationSet(std::move(eval).value());
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete full_graph_;
    delete train_graph_;
    delete eval_;
    generated_ = nullptr;
  }

  // The matched regime on the full model config.
  static SlamPredConfig MatchedConfig() {
    SlamPredConfig config;
    config.gamma = 0.0;
    config.optimization.inner.theta = 0.05;
    config.optimization.inner.max_iterations = 30;
    config.optimization.inner.tol = 0.0;
    config.optimization.inner.project_unit_box = false;
    config.optimization.max_outer_iterations = 2;
    config.optimization.outer_tol = 0.0;
    return config;
  }

  static GeneratedAligned* generated_;
  static SocialGraph* full_graph_;
  static SocialGraph* train_graph_;
  static EvaluationSet* eval_;
};

GeneratedAligned* FactoredMetricsTest::generated_ = nullptr;
SocialGraph* FactoredMetricsTest::full_graph_ = nullptr;
SocialGraph* FactoredMetricsTest::train_graph_ = nullptr;
EvaluationSet* FactoredMetricsTest::eval_ = nullptr;

TEST_F(FactoredMetricsTest, MatchedRegimeFitMatchesDenseMetrics) {
  SlamPredConfig dense_config = MatchedConfig();
  SlamPred dense(dense_config);
  ASSERT_TRUE(dense.Fit(generated_->networks, *train_graph_).ok());

  SlamPredConfig factored_config = MatchedConfig();
  factored_config.solver_backend = SolverBackend::kFactored;
  factored_config.factored.rank = full_graph_->num_users();
  factored_config.factored.oversampling = 0;
  SlamPred factored(factored_config);
  ASSERT_TRUE(factored.Fit(generated_->networks, *train_graph_).ok());
  EXPECT_GT(factored.memory_stats().solver_rank, 0u);
  EXPECT_NE(StoredAs<FactoredMatrix>(factored.scores()), nullptr);

  auto dense_scores = dense.ScorePairs(eval_->pairs);
  auto factored_scores = factored.ScorePairs(eval_->pairs);
  ASSERT_TRUE(dense_scores.ok());
  ASSERT_TRUE(factored_scores.ok());

  double max_diff = 0.0;
  for (std::size_t i = 0; i < dense_scores.value().size(); ++i) {
    max_diff = std::max(max_diff, std::abs(dense_scores.value()[i] -
                                           factored_scores.value()[i]));
  }
  // Rounding differences between the two solve paths accumulate over
  // the fixed iteration budget; what matters for the gate is that they
  // stay far below any score gap that could flip a ranking.
  EXPECT_LT(max_diff, 1e-4);

  const double dense_auc =
      ComputeAuc(dense_scores.value(), eval_->labels).value_or(-1.0);
  const double factored_auc =
      ComputeAuc(factored_scores.value(), eval_->labels).value_or(-2.0);
  EXPECT_NEAR(factored_auc, dense_auc, 1e-9);

  const double dense_p100 =
      ComputePrecisionAtK(dense_scores.value(), eval_->labels, 100)
          .value_or(-1.0);
  const double factored_p100 =
      ComputePrecisionAtK(factored_scores.value(), eval_->labels, 100)
          .value_or(-2.0);
  EXPECT_EQ(factored_p100, dense_p100);
}

TEST_F(FactoredMetricsTest, FactoredMetricsAreThreadCountInvariant) {
  SlamPredConfig config = MatchedConfig();
  config.solver_backend = SolverBackend::kFactored;
  config.factored.rank = 24;
  config.factored.oversampling = 8;
  config.optimization.inner.max_iterations = 15;

  ThreadPool::Global().Resize(1);
  SlamPred reference(config);
  ASSERT_TRUE(reference.Fit(generated_->networks, *train_graph_).ok());
  auto reference_scores = reference.ScorePairs(eval_->pairs);
  ASSERT_TRUE(reference_scores.ok());

  ForEachThreadCount([&](std::size_t threads) {
    SlamPred model(config);
    ASSERT_TRUE(model.Fit(generated_->networks, *train_graph_).ok());
    auto scores = model.ScorePairs(eval_->pairs);
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(scores.value(), reference_scores.value())
        << "scores at " << threads << " threads";
  });
}

// ---------------------------------------------------------------------
// Injection suites: the factored prox sits behind the same "svd.prox"
// fault site as the dense backends plus its own "prox.factored" site,
// and the factored inner loop honors "fb.grad_step".

class FactoredFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  // Small fixture converging hard, so clean and recovered solves land
  // on the same fixed point.
  static FactoredObjective SmallObjective() {
    FactoredObjective objective;
    objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0, 0.0},
                                              {1.0, 0.0, 1.0},
                                              {0.0, 1.0, 0.0}});
    Matrix g(3, 3, 0.2);
    for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
    objective.grad_v = CsrMatrix::FromDense(g);
    objective.gamma = 0.05;
    objective.tau = 0.05;
    return objective;
  }

  static CccpOptions TightOptions() {
    CccpOptions options;
    options.inner.theta = 0.05;
    options.inner.max_iterations = 3000;
    options.inner.tol = 1e-11;
    options.inner.project_unit_box = false;
    options.max_outer_iterations = 3;
    return options;
  }

  static FactoredSolverOptions SmallSketch() { return FullRankSketch(3); }
};

TEST_F(FactoredFaultTest, ProxFactoredFaultTriggersFallbackChain) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  const CccpOptions options = TightOptions();

  CccpTrace clean_trace;
  auto clean = SolveCccpFactored(objective, options, SmallSketch(),
                                 &clean_trace);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean_trace.recovery.Total(), 0);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.trigger_after = 3;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("prox.factored", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.svd_fallbacks, 1);
  EXPECT_EQ(FaultInjector::Instance().TriggerCount("prox.factored"), 1);
  EXPECT_LT((faulted.value().ToDense() - clean.value().ToDense()).MaxAbs(),
            1e-6);
}

TEST_F(FactoredFaultTest, ProxFactoredPoisonIsCaughtByFallback) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  auto clean = SolveCccpFactored(objective, options, SmallSketch());
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.trigger_after = 1;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("prox.factored", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.Total(), 1);
  EXPECT_TRUE(faulted.value().IsFinite());
  EXPECT_LT((faulted.value().ToDense() - clean.value().ToDense()).MaxAbs(),
            1e-6);
}

TEST_F(FactoredFaultTest, SvdProxSiteAlsoCoversTheFactoredBackend) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  auto clean = SolveCccpFactored(objective, options, SmallSketch());
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("svd.prox", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.svd_fallbacks, 1);
  EXPECT_EQ(FaultInjector::Instance().TriggerCount("svd.prox"), 1);
  EXPECT_LT((faulted.value().ToDense() - clean.value().ToDense()).MaxAbs(),
            1e-6);
}

TEST_F(FactoredFaultTest, GradStepPoisonRollsBackAndRecovers) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  auto clean = SolveCccpFactored(objective, options, SmallSketch());
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.nan_rollbacks, 1);
  EXPECT_LT((faulted.value().ToDense() - clean.value().ToDense()).MaxAbs(),
            1e-6);
}

TEST_F(FactoredFaultTest, PersistentFaultExhaustsInnerBudgetThenResumes) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 4;

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = 6;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
  EXPECT_GE(trace.recovery.nan_rollbacks, 5);
  EXPECT_TRUE(faulted.value().IsFinite());
}

TEST_F(FactoredFaultTest, UnrecoverableFaultReturnsStatusNotAbort) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 2;
  options.inner.guardrails.max_checkpoint_resumes = 1;

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = -1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccpFactored(objective, options, SmallSketch(), &trace);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
}

TEST_F(FactoredFaultTest, DivergenceBackoffTamesUnstableStepSize) {
  // The factored twin of the dense suite's test: θ = 5 is far beyond
  // the 1/L = 0.5 stability bound, so without the guardrail the
  // iterates oscillate with geometrically growing change.
  FactoredObjective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  objective.grad_v = CsrMatrix::FromDense(Matrix(2, 2));

  ForwardBackwardOptions options;
  options.theta = 5.0;
  options.max_iterations = 400;
  options.tol = 1e-10;

  IterationTrace trace;
  RecoveryStats recovery;
  auto s = GeneralizedForwardBackwardFactored(
      objective, FactoredMatrix::Zero(2, 2), options, FullRankSketch(2),
      /*sketch_seed=*/1, /*warm_basis=*/nullptr, &trace, &recovery);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_GE(recovery.divergence_backoffs, 1);
  // After the backoffs bring θ into the stable range the loop converges
  // to the unregularised minimiser S = A.
  EXPECT_LT((s.value().ToDense() - objective.a.ToDense()).MaxAbs(), 1e-3);
}

TEST_F(FactoredFaultTest, GuardrailsDisabledPropagatesProxFailure) {
  SLAMPRED_REQUIRE_INJECTION();
  const FactoredObjective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.enabled = false;

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("prox.factored", spec);

  auto faulted = SolveCccpFactored(objective, options, SmallSketch());
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
}

}  // namespace
}  // namespace slampred
