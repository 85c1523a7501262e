// Tests for the proximal operators, objective, forward–backward inner
// loop and the CCCP outer loop.

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_ops.h"
#include "linalg/svd.h"
#include "optim/cccp.h"
#include "optim/forward_backward.h"
#include "optim/objective.h"
#include "optim/proximal.h"
#include "util/random.h"

namespace slampred {
namespace {

TEST(ProxL1Test, SoftThresholdHandChecked) {
  const Matrix s{{2.0, -0.5}, {0.3, -3.0}};
  const Matrix out = ProxL1(s, 1.0);
  EXPECT_DOUBLE_EQ(out(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 1), -2.0);
}

TEST(ProxL1Test, ZeroThresholdIsIdentity) {
  Rng rng(1);
  const Matrix s = Matrix::RandomGaussian(4, 4, rng);
  EXPECT_EQ(ProxL1(s, 0.0), s);
}

TEST(ProxL1Test, LargeThresholdZeroesEverything) {
  Rng rng(2);
  const Matrix s = Matrix::RandomGaussian(3, 3, rng);
  EXPECT_DOUBLE_EQ(ProxL1(s, 100.0).MaxAbs(), 0.0);
}

// Parameterised property: prox_l1 is non-expansive and shrinks the l1
// norm by at most threshold per entry.
class ProxL1ParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ProxL1ParamTest, ShrinkageProperties) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 100) + 3);
  const Matrix s = Matrix::RandomGaussian(5, 5, rng);
  const Matrix out = ProxL1(s, GetParam());
  EXPECT_LE(out.NormL1(), s.NormL1() + 1e-12);
  for (std::size_t i = 0; i < s.data().size(); ++i) {
    EXPECT_LE(std::fabs(out.data()[i]), std::fabs(s.data()[i]) + 1e-12);
    // Sign never flips.
    EXPECT_GE(out.data()[i] * s.data()[i], -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ProxL1ParamTest,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0));

TEST(ProxNuclearTest, ShrinksSingularValues) {
  const Matrix s = Matrix::Diagonal(Vector{5.0, 2.0, 0.5});
  auto out = ProxNuclear(s, 1.0);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()(0, 0), 4.0, 1e-9);
  EXPECT_NEAR(out.value()(1, 1), 1.0, 1e-9);
  EXPECT_NEAR(out.value()(2, 2), 0.0, 1e-9);
}

TEST(ProxNuclearTest, ReducesRank) {
  Rng rng(5);
  // Low-rank plus small noise: shrinking must cut the noise rank.
  const Matrix u = Matrix::RandomGaussian(8, 2, rng);
  Matrix s = MultiplyABt(u, u);
  const Matrix noise = Matrix::RandomGaussian(8, 8, rng) * 0.01;
  s += noise;
  auto out = ProxNuclear(s, 0.5);
  ASSERT_TRUE(out.ok());
  auto rank = NumericalRank(out.value(), 1e-6);
  ASSERT_TRUE(rank.ok());
  EXPECT_LE(rank.value(), 2u);
}

TEST(ProxNuclearTest, SymmetricPathMatchesGeneralPath) {
  Rng rng(7);
  const Matrix s = Matrix::RandomGaussian(6, 6, rng).Symmetrized();
  auto general = ProxNuclear(s, 0.3);
  auto symmetric = ProxNuclearSymmetric(s, 0.3);
  ASSERT_TRUE(general.ok());
  ASSERT_TRUE(symmetric.ok());
  EXPECT_LT((general.value() - symmetric.value()).MaxAbs(), 1e-7);
}

TEST(ProxNuclearTest, SymmetricPathHandlesNegativeEigenvalues) {
  // diag(3, -2): nuclear prox with τ=1 → diag(2, -1).
  const Matrix s = Matrix::Diagonal(Vector{3.0, -2.0});
  auto out = ProxNuclearSymmetric(s, 1.0);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()(0, 0), 2.0, 1e-9);
  EXPECT_NEAR(out.value()(1, 1), -1.0, 1e-9);
}

TEST(ProxNuclearTest, AutoDispatch) {
  Rng rng(9);
  const Matrix sym = Matrix::RandomGaussian(5, 5, rng).Symmetrized();
  auto a = ProxNuclearAuto(sym, 0.2);
  auto b = ProxNuclearSymmetric(sym, 0.2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT((a.value() - b.value()).MaxAbs(), 1e-9);
  const Matrix rect = Matrix::RandomGaussian(3, 5, rng);
  EXPECT_TRUE(ProxNuclearAuto(rect, 0.2).ok());
}

TEST(ProxNuclearTest, NegativeThresholdRejected) {
  EXPECT_FALSE(ProxNuclear(Matrix::Identity(2), -1.0).ok());
  EXPECT_FALSE(ProxNuclearSymmetric(Matrix::Identity(2), -1.0).ok());
}

TEST(ObjectiveTest, IntimacyGradientWeightsAndSums) {
  Tensor3 t0(2, 2, 2);
  t0.SetSlice(0, Matrix{{0.0, 1.0}, {1.0, 0.0}});
  t0.SetSlice(1, Matrix{{0.0, 2.0}, {2.0, 0.0}});
  Tensor3 t1(1, 2, 2);
  t1.SetSlice(0, Matrix{{0.0, 10.0}, {10.0, 0.0}});
  const Matrix g = BuildIntimacyGradient({t0, t1}, {1.0, 0.5}, 2);
  EXPECT_DOUBLE_EQ(g(0, 1), 3.0 + 5.0);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
}

TEST(ObjectiveTest, SmoothGradientMatchesFiniteDifference) {
  Rng rng(11);
  Objective objective;
  objective.a =
      CsrMatrix::FromDense(Matrix::RandomGaussian(4, 4, rng).Symmetrized());
  objective.grad_v = Matrix::RandomGaussian(4, 4, rng).Symmetrized();
  objective.gamma = 0.0;
  objective.tau = 0.0;
  const Matrix s = Matrix::RandomGaussian(4, 4, rng);
  const Matrix grad = SmoothGradient(objective, s);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      Matrix plus = s;
      plus(i, j) += eps;
      Matrix minus = s;
      minus(i, j) -= eps;
      const double numeric =
          (SmoothValue(objective, plus) - SmoothValue(objective, minus)) /
          (2.0 * eps);
      EXPECT_NEAR(grad(i, j), numeric, 1e-4);
    }
  }
}

TEST(ObjectiveTest, FullObjectiveValueComposition) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix::Identity(2));
  objective.grad_v = Matrix(2, 2);
  objective.gamma = 1.0;
  objective.tau = 1.0;
  // At S = A = I: loss 0, ‖S‖₁ = 2, ‖S‖_* = 2, no intimacy terms.
  const double value = FullObjectiveValue(objective, Matrix::Identity(2),
                                          std::vector<Tensor3>{}, {});
  EXPECT_NEAR(value, 4.0, 1e-9);
}

TEST(ForwardBackwardTest, PureLossConvergesToA) {
  // With no regularizers and no intimacy, the minimiser is S = A.
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  objective.grad_v = Matrix(2, 2);
  objective.gamma = 0.0;
  objective.tau = 0.0;
  ForwardBackwardOptions options;
  options.theta = 0.1;
  options.max_iterations = 500;
  options.tol = 1e-10;
  auto s = GeneralizedForwardBackward(objective, Matrix(2, 2), options);
  ASSERT_TRUE(s.ok());
  EXPECT_LT((s.value() - objective.a.ToDense()).MaxAbs(), 1e-3);
}

TEST(ForwardBackwardTest, L1AnalyticFixedPoint) {
  // min (s-a)² + γ|s| has solution a - γ/2 for a > γ/2 (entry-wise).
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.8, 0.8}, {0.8, 0.8}});
  objective.grad_v = Matrix(2, 2);
  objective.gamma = 0.4;
  objective.tau = 0.0;
  ForwardBackwardOptions options;
  options.theta = 0.05;
  options.max_iterations = 2000;
  options.tol = 1e-12;
  options.keep_symmetric = false;
  auto s = GeneralizedForwardBackward(objective, Matrix(2, 2), options);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value()(0, 0), 0.6, 1e-3);
}

TEST(ForwardBackwardTest, ProjectionKeepsUnitBox) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix(3, 3, 5.0));  // Pulls far above 1.
  objective.grad_v = Matrix(3, 3);
  objective.gamma = 0.0;
  objective.tau = 0.0;
  ForwardBackwardOptions options;
  options.theta = 0.2;
  options.max_iterations = 100;
  auto s = GeneralizedForwardBackward(objective, Matrix(3, 3), options);
  ASSERT_TRUE(s.ok());
  EXPECT_LE(s.value().MaxAbs(), 1.0 + 1e-12);
}

TEST(ForwardBackwardTest, TraceRecordsIterations) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix::Identity(3));
  objective.grad_v = Matrix(3, 3);
  objective.gamma = 0.1;
  objective.tau = 0.1;
  ForwardBackwardOptions options;
  options.max_iterations = 20;
  options.tol = 0.0;  // Never converge: run all 20.
  IterationTrace trace;
  auto s = GeneralizedForwardBackward(objective, Matrix(3, 3), options,
                                      &trace);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(trace.iterations, 20);
  EXPECT_EQ(trace.s_norm_l1.size(), 20u);
  EXPECT_EQ(trace.s_change_l1.size(), 20u);
  EXPECT_FALSE(trace.converged);
}

TEST(CccpTest, ConvergesAndTraces) {
  Rng rng(13);
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0, 0.0},
                                            {1.0, 0.0, 1.0},
                                            {0.0, 1.0, 0.0}});
  Matrix g(3, 3, 0.2);
  for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
  objective.grad_v = g;
  objective.gamma = 0.05;
  objective.tau = 0.05;

  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 100;
  options.max_outer_iterations = 4;
  CccpTrace trace;
  auto s = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(trace.outer_iterations, 0);
  EXPECT_GE(trace.steps.iterations, trace.outer_iterations);
  // The iterate change must shrink over the run (Figure-3 behaviour).
  const auto& change = trace.steps.s_change_l1;
  ASSERT_GT(change.size(), 4u);
  EXPECT_LT(change.back(), change.front() + 1e-9);
  // Outer changes decrease to (near) zero.
  EXPECT_LT(trace.outer_change_l1.back(), trace.outer_change_l1.front() + 1e-9);
}

TEST(CccpTest, SolutionStaysSymmetricInUnitBox) {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  objective.grad_v = Matrix(2, 2, 0.3);
  objective.gamma = 0.1;
  objective.tau = 0.1;
  auto s = SolveCccp(objective, CccpOptions{});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.value().IsSymmetric(1e-9));
  for (double v : s.value().data()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(CccpTest, HigherIntimacyRaisesScores) {
  Objective low;
  low.a = CsrMatrix::FromDense(Matrix(3, 3));
  low.grad_v = Matrix(3, 3, 0.2);
  low.gamma = 0.01;
  low.tau = 0.01;
  Objective high = low;
  high.grad_v = Matrix(3, 3, 1.0);
  auto s_low = SolveCccp(low, CccpOptions{});
  auto s_high = SolveCccp(high, CccpOptions{});
  ASSERT_TRUE(s_low.ok());
  ASSERT_TRUE(s_high.ok());
  EXPECT_GT(s_high.value().Sum(), s_low.value().Sum());
}

}  // namespace
}  // namespace slampred
