// Tests for SVD, symmetric eigen, generalized eigen, Cholesky and QR.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/generalized_eigen.h"
#include "linalg/matrix_ops.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "util/random.h"

namespace slampred {
namespace {

Matrix RandomSymmetric(std::size_t n, Rng& rng) {
  return Matrix::RandomGaussian(n, n, rng).Symmetrized();
}

Matrix RandomSpd(std::size_t n, Rng& rng) {
  const Matrix a = Matrix::RandomGaussian(n, n + 2, rng);
  Matrix spd = GramAAt(a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

double OrthonormalityError(const Matrix& q) {
  const Matrix gram = GramAtA(q);
  return (gram - Matrix::Identity(q.cols())).MaxAbs();
}

// ---------------------------------------------------------------- SVD --

class SvdParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdParamTest, ReconstructsInput) {
  Rng rng(GetParam().first * 131 + GetParam().second);
  const Matrix a =
      Matrix::RandomGaussian(GetParam().first, GetParam().second, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok()) << svd.status().ToString();
  EXPECT_LT((svd.value().Reconstruct() - a).MaxAbs(), 1e-8);
}

TEST_P(SvdParamTest, SingularVectorsOrthonormal) {
  Rng rng(GetParam().first * 17 + GetParam().second + 3);
  const Matrix a =
      Matrix::RandomGaussian(GetParam().first, GetParam().second, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_LT(OrthonormalityError(svd.value().u), 1e-8);
  EXPECT_LT(OrthonormalityError(svd.value().v), 1e-8);
}

TEST_P(SvdParamTest, SingularValuesSortedNonNegative) {
  Rng rng(GetParam().first * 23 + GetParam().second + 9);
  const Matrix a =
      Matrix::RandomGaussian(GetParam().first, GetParam().second, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  const Vector& sigma = svd.value().singular_values;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    EXPECT_GE(sigma[i], 0.0);
    if (i > 0) EXPECT_LE(sigma[i], sigma[i - 1] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdParamTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(5u, 5u),
                      std::make_pair(8u, 3u), std::make_pair(3u, 8u),
                      std::make_pair(20u, 20u), std::make_pair(12u, 30u)));

TEST(SvdTest, KnownDiagonalMatrix) {
  const Matrix a = Matrix::Diagonal(Vector{3.0, 1.0, 2.0});
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd.value().singular_values[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.value().singular_values[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.value().singular_values[2], 1.0, 1e-12);
}

TEST(SvdTest, RankDeficientMatrix) {
  // Rank-1 outer product: exactly one non-zero singular value.
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<double>((i + 1) * (j + 1));
    }
  }
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd.value().singular_values[0], 1.0);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(svd.value().singular_values[i], 0.0, 1e-9);
  }
}

TEST(SvdTest, ZeroMatrix) {
  auto svd = ComputeSvd(Matrix(3, 3));
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd.value().singular_values.NormInf(), 0.0, 1e-15);
}

TEST(SvdTest, EmptyMatrixRejected) {
  EXPECT_FALSE(ComputeSvd(Matrix()).ok());
}

TEST(SvdTest, NuclearNormMatchesTraceForSpd) {
  Rng rng(77);
  const Matrix spd = RandomSpd(6, rng);
  auto nuc = NuclearNorm(spd);
  ASSERT_TRUE(nuc.ok());
  EXPECT_NEAR(nuc.value(), spd.Trace(), 1e-8);
}

TEST(SvdTest, SpectralNormEstimateMatchesTopSingularValue) {
  Rng rng(78);
  const Matrix a = Matrix::RandomGaussian(10, 6, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(SpectralNormEstimate(a, 200), svd.value().singular_values[0],
              1e-6);
}

// -------------------------------------------------------- Sym. eigen --

class SymEigenParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigenParamTest, ReconstructsInput) {
  Rng rng(GetParam() * 13 + 1);
  const Matrix a = RandomSymmetric(GetParam(), rng);
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  EXPECT_LT((eig.value().Reconstruct() - a).MaxAbs(), 1e-8);
}

TEST_P(SymEigenParamTest, EigenvectorsOrthonormalAndSorted) {
  Rng rng(GetParam() * 19 + 5);
  const Matrix a = RandomSymmetric(GetParam(), rng);
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_LT(OrthonormalityError(eig.value().eigenvectors), 1e-8);
  const Vector& lambda = eig.value().eigenvalues;
  for (std::size_t i = 1; i < lambda.size(); ++i) {
    EXPECT_GE(lambda[i], lambda[i - 1] - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenParamTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25));

TEST(SymEigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.value().eigenvalues[1], 3.0, 1e-12);
}

TEST(SymEigenTest, RejectsAsymmetric) {
  const Matrix a{{1.0, 5.0}, {0.0, 1.0}};
  EXPECT_FALSE(ComputeSymmetricEigen(a).ok());
}

TEST(SymEigenTest, EigenvalueEquationHolds) {
  Rng rng(33);
  const Matrix a = RandomSymmetric(7, rng);
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (std::size_t j = 0; j < 7; ++j) {
    const Vector v = eig.value().eigenvectors.Col(j);
    const Vector av = a * v;
    const Vector lv = v * eig.value().eigenvalues[j];
    EXPECT_LT((av - lv).NormInf(), 1e-8);
  }
}

// ---------------------------------------------------------- Cholesky --

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(44);
  const Matrix spd = RandomSpd(6, rng);
  auto chol = ComputeCholesky(spd);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.value().l;
  EXPECT_LT((MultiplyABt(l, l) - spd).MaxAbs(), 1e-9);
  // Strictly upper triangle must be zero.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, SolveMatchesDirectSolution) {
  Rng rng(45);
  const Matrix spd = RandomSpd(5, rng);
  const Vector x_true = Vector{1.0, -2.0, 0.5, 3.0, -1.0};
  const Vector b = spd * x_true;
  auto chol = ComputeCholesky(spd);
  ASSERT_TRUE(chol.ok());
  const Vector x = CholeskySolve(chol.value(), b);
  EXPECT_LT((x - x_true).NormInf(), 1e-8);
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};  // Eigenvalues 3, -1.
  EXPECT_FALSE(ComputeCholesky(indefinite).ok());
}

TEST(CholeskyTest, MatrixSubstitutions) {
  Rng rng(46);
  const Matrix spd = RandomSpd(4, rng);
  auto chol = ComputeCholesky(spd);
  ASSERT_TRUE(chol.ok());
  const Matrix b = Matrix::RandomGaussian(4, 3, rng);
  const Matrix y = ForwardSubstituteMatrix(chol.value().l, b);
  const Matrix x = BackSubstituteTransposeMatrix(chol.value().l, y);
  EXPECT_LT((spd * x - b).MaxAbs(), 1e-8);
}

// ---------------------------------------------------------------- QR --

TEST(QrTest, FactorReconstructsAndQOrthonormal) {
  Rng rng(48);
  const Matrix a = Matrix::RandomGaussian(8, 4, rng);
  auto qr = ComputeQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT((qr.value().q * qr.value().r - a).MaxAbs(), 1e-9);
  EXPECT_LT(OrthonormalityError(qr.value().q), 1e-9);
  // R upper triangular.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr.value().r(i, j), 0.0, 1e-12);
    }
  }
}

TEST(QrTest, WideMatrixRejected) {
  EXPECT_FALSE(ComputeQr(Matrix(2, 5, 1.0)).ok());
}

TEST(QrTest, OrthonormalizeDropsDependentColumns) {
  Matrix a(4, 3);
  a.SetCol(0, Vector{1.0, 0.0, 0.0, 0.0});
  a.SetCol(1, Vector{2.0, 0.0, 0.0, 0.0});  // Dependent on column 0.
  a.SetCol(2, Vector{0.0, 1.0, 0.0, 0.0});
  const Matrix basis = OrthonormalizeColumns(a);
  EXPECT_EQ(basis.cols(), 2u);
  EXPECT_LT(OrthonormalityError(basis), 1e-10);
}

// ------------------------------------------------- Generalized eigen --

TEST(GeneralizedEigenTest, IdentityBReducesToStandardProblem) {
  Rng rng(50);
  const Matrix a = RandomSymmetric(6, rng);
  auto gen = ComputeGeneralizedEigen(a, Matrix::Identity(6));
  auto std_eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(std_eig.ok());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(gen.value().eigenvalues[i], std_eig.value().eigenvalues[i],
                1e-6);
  }
}

TEST(GeneralizedEigenTest, SatisfiesDefiningEquation) {
  Rng rng(51);
  const Matrix a = RandomSymmetric(5, rng);
  const Matrix b = RandomSpd(5, rng);
  auto gen = ComputeGeneralizedEigen(a, b);
  ASSERT_TRUE(gen.ok());
  for (std::size_t j = 0; j < 5; ++j) {
    const Vector x = gen.value().eigenvectors.Col(j);
    const Vector ax = a * x;
    const Vector bx = b * x;
    EXPECT_LT((ax - bx * gen.value().eigenvalues[j]).NormInf(), 1e-6);
  }
}

TEST(GeneralizedEigenTest, VectorsAreBOrthonormal) {
  Rng rng(52);
  const Matrix a = RandomSymmetric(5, rng);
  const Matrix b = RandomSpd(5, rng);
  auto gen = ComputeGeneralizedEigen(a, b);
  ASSERT_TRUE(gen.ok());
  const Matrix& x = gen.value().eigenvectors;
  const Matrix gram = x.Transposed() * b * x;
  EXPECT_LT((gram - Matrix::Identity(5)).MaxAbs(), 1e-6);
}

TEST(GeneralizedEigenTest, SingularBIsRegularised) {
  // B is a Laplacian (singular); the ridge must make it solvable.
  const Matrix a = Matrix::Identity(3);
  const Matrix b{{1.0, -1.0, 0.0}, {-1.0, 2.0, -1.0}, {0.0, -1.0, 1.0}};
  auto gen = ComputeGeneralizedEigen(a, b);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();
}

TEST(GeneralizedEigenTest, SmallestNonZeroSelection) {
  // A diag(0, 1, 10), B = I: smallest non-zero eigenvalue is 1 → the
  // selected eigenvector should be e2 (up to sign).
  const Matrix a = Matrix::Diagonal(Vector{0.0, 1.0, 10.0});
  auto gen = ComputeGeneralizedEigen(a, Matrix::Identity(3));
  ASSERT_TRUE(gen.ok());
  const std::vector<std::size_t> chosen =
      SmallestNonZeroIndices(gen.value().eigenvalues, 1);
  ASSERT_EQ(chosen.size(), 1u);
  const Vector v = gen.value().eigenvectors.Col(chosen[0]);
  EXPECT_NEAR(std::fabs(v[1]), 1.0, 1e-6);
  EXPECT_NEAR(v[0], 0.0, 1e-6);
  EXPECT_NEAR(v[2], 0.0, 1e-6);
}

TEST(GeneralizedEigenTest, SmallestNonZeroSelectionPadsAscending) {
  // Two eigenvalues clear the cutoff 1e-8·max|λ| = 5e-8; the rest
  // (negative, zero, and 1e-9 below the cutoff) pad in ascending order.
  const Vector lambda{-3e-9, 0.0, 1e-9, 2.0, 5.0};
  EXPECT_EQ(SmallestNonZeroIndices(lambda, 1),
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(SmallestNonZeroIndices(lambda, 2),
            (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(SmallestNonZeroIndices(lambda, 4),
            (std::vector<std::size_t>{3, 4, 0, 1}));
  EXPECT_EQ(SmallestNonZeroIndices(lambda, 5),
            (std::vector<std::size_t>{3, 4, 0, 1, 2}));
  // Never more indices than eigenvalues, and an all-zero spectrum is
  // all padding.
  EXPECT_EQ(SmallestNonZeroIndices(lambda, 9).size(), 5u);
  EXPECT_EQ(SmallestNonZeroIndices(Vector{0.0, 0.0}, 2),
            (std::vector<std::size_t>{0, 1}));
}

TEST(GeneralizedEigenTest, ShapeMismatchRejected) {
  EXPECT_FALSE(
      ComputeGeneralizedEigen(Matrix::Identity(3), Matrix::Identity(4)).ok());
}

}  // namespace
}  // namespace slampred
