// Tests for the factored low-rank matrix S = U·Vᵀ: every Gram-trick
// kernel against its dense reference, serialization round-trips, and
// bit-identical results at 1, 2 and 7 threads.

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "linalg/factored_matrix.h"
#include "linalg/matrix.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

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

FactoredMatrix RandomFactored(std::size_t rows, std::size_t cols,
                              std::size_t rank, std::uint64_t seed) {
  Rng rng(seed);
  return FactoredMatrix(Matrix::RandomGaussian(rows, rank, rng),
                        Matrix::RandomGaussian(cols, rank, rng));
}

// Odd sizes, larger than one parallel chunk.
constexpr std::size_t kRows = 37;
constexpr std::size_t kCols = 29;
constexpr std::size_t kRank = 5;

TEST(FactoredMatrixTest, AtAndToDenseAgree) {
  const FactoredMatrix s = RandomFactored(kRows, kCols, kRank, 11);
  const Matrix dense = s.ToDense();
  ASSERT_EQ(dense.rows(), kRows);
  ASSERT_EQ(dense.cols(), kCols);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      double expected = 0.0;
      for (std::size_t r = 0; r < kRank; ++r) {
        expected += s.u()(i, r) * s.v()(j, r);
      }
      EXPECT_NEAR(dense(i, j), expected, 1e-14);
      EXPECT_NEAR(s.At(i, j), expected, 1e-14);
    }
  }
}

TEST(FactoredMatrixTest, MismatchedFactorRanksAreRejected) {
  EXPECT_DEATH_IF_SUPPORTED(
      FactoredMatrix(Matrix(4, 3), Matrix(4, 2)), "");
}

TEST(FactoredMatrixTest, ZeroRepresentsTheExactZeroMatrix) {
  const FactoredMatrix z = FactoredMatrix::Zero(6, 4);
  EXPECT_EQ(z.rows(), 6u);
  EXPECT_EQ(z.cols(), 4u);
  EXPECT_EQ(z.rank(), 0u);
  EXPECT_EQ(z.FrobeniusNorm(), 0.0);
  const Matrix dense = z.ToDense();
  for (double v : dense.data()) EXPECT_EQ(v, 0.0);
}

TEST(FactoredMatrixTest, MultiplyDenseMatchesDenseProduct) {
  const FactoredMatrix s = RandomFactored(kRows, kCols, kRank, 12);
  Rng rng(13);
  const Matrix b = Matrix::RandomGaussian(kCols, 4, rng);
  const Matrix bt = Matrix::RandomGaussian(kRows, 4, rng);
  const Matrix via_factors = s.MultiplyDense(b);
  const Matrix via_dense = s.ToDense() * b;
  ASSERT_EQ(via_factors.rows(), via_dense.rows());
  for (std::size_t i = 0; i < via_dense.data().size(); ++i) {
    EXPECT_NEAR(via_factors.data()[i], via_dense.data()[i], 1e-12);
  }
  const Matrix t_factors = s.MultiplyTransposeDense(bt);
  const Matrix t_dense = s.ToDense().Transposed() * bt;
  for (std::size_t i = 0; i < t_dense.data().size(); ++i) {
    EXPECT_NEAR(t_factors.data()[i], t_dense.data()[i], 1e-12);
  }
}

TEST(FactoredMatrixTest, GramNormsMatchDense) {
  const FactoredMatrix a = RandomFactored(kRows, kCols, kRank, 21);
  const FactoredMatrix b = RandomFactored(kRows, kCols, kRank + 2, 22);
  const Matrix da = a.ToDense();
  const Matrix db = b.ToDense();

  EXPECT_NEAR(a.FrobeniusNorm(), da.FrobeniusNorm(), 1e-10);
  EXPECT_NEAR(a.DistanceFrobenius(b), (da - db).FrobeniusNorm(), 1e-9);
  EXPECT_NEAR(a.DistanceFrobenius(a), 0.0, 1e-9);

  double dense_inner = 0.0;
  for (std::size_t i = 0; i < da.data().size(); ++i) {
    dense_inner += da.data()[i] * db.data()[i];
  }
  EXPECT_NEAR(InnerProduct(a, b), dense_inner, 1e-9);
}

TEST(FactoredMatrixTest, ScaledAndSymmetrizedMatchDense) {
  const FactoredMatrix s = RandomFactored(kRows, kRows, kRank, 41);
  const Matrix dense = s.ToDense();

  const Matrix scaled = s.Scaled(-2.5).ToDense();
  for (std::size_t i = 0; i < dense.data().size(); ++i) {
    EXPECT_NEAR(scaled.data()[i], -2.5 * dense.data()[i], 1e-12);
  }

  const FactoredMatrix sym = s.Symmetrized();
  EXPECT_EQ(sym.rank(), 2 * kRank);  // Doubles; the prox re-truncates.
  const Matrix sym_dense = sym.ToDense();
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kRows; ++j) {
      EXPECT_NEAR(sym_dense(i, j), 0.5 * (dense(i, j) + dense(j, i)),
                  1e-12);
    }
  }
}

TEST(FactoredMatrixTest, SerializeRoundTripsBitExactly) {
  const FactoredMatrix s = RandomFactored(kRows, kCols, kRank, 71);
  BinaryWriter writer;
  s.Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto parsed = FactoredMatrix::Deserialize(reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == s);
  EXPECT_EQ(parsed.value().u().data(), s.u().data());
  EXPECT_EQ(parsed.value().v().data(), s.v().data());
}

TEST(FactoredMatrixTest, DeserializeRejectsMismatchedFactorRanks) {
  BinaryWriter writer;
  Matrix(3, 2).Serialize(writer);
  Matrix(4, 5).Serialize(writer);  // 2 vs 5 factor columns.
  BinaryReader reader(writer.buffer());
  auto parsed = FactoredMatrix::Deserialize(reader);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(FactoredMatrixTest, KernelsAreBitIdenticalAcrossThreadCounts) {
  const FactoredMatrix s = RandomFactored(61, 61, 6, 81);
  const FactoredMatrix other = RandomFactored(61, 61, 4, 82);

  ThreadPool::Global().Resize(1);
  const Matrix dense_ref = s.ToDense();
  const double frob_ref = s.FrobeniusNorm();
  const double dist_ref = s.DistanceFrobenius(other);

  ForEachThreadCount([&](std::size_t threads) {
    EXPECT_EQ(s.ToDense().data(), dense_ref.data())
        << threads << " threads";
    EXPECT_EQ(s.FrobeniusNorm(), frob_ref) << threads << " threads";
    EXPECT_EQ(s.DistanceFrobenius(other), dist_ref)
        << threads << " threads";
  });
}

}  // namespace
}  // namespace slampred
