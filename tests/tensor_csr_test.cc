// Tests for Tensor3 and the CSR sparse matrix.

#include <gtest/gtest.h>

#include "linalg/csr_matrix.h"
#include "linalg/tensor3.h"
#include "util/random.h"

namespace slampred {
namespace {

TEST(Tensor3Test, ShapeAndAccess) {
  Tensor3 t(2, 3, 4);
  EXPECT_EQ(t.dim0(), 2u);
  EXPECT_EQ(t.dim1(), 3u);
  EXPECT_EQ(t.dim2(), 4u);
  t(1, 2, 3) = 5.0;
  EXPECT_DOUBLE_EQ(t.At(1, 2, 3), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 0, 0), 0.0);
}

TEST(Tensor3Test, SliceRoundTrip) {
  Tensor3 t(3, 2, 2);
  Matrix slice{{1.0, 2.0}, {3.0, 4.0}};
  t.SetSlice(1, slice);
  EXPECT_EQ(t.Slice(1), slice);
  EXPECT_DOUBLE_EQ(t.Slice(0).MaxAbs(), 0.0);
}

TEST(Tensor3Test, FiberRoundTrip) {
  Tensor3 t(4, 3, 3);
  const Vector fiber{1.0, 2.0, 3.0, 4.0};
  t.SetFiber(1, 2, fiber);
  EXPECT_EQ(t.Fiber(1, 2), fiber);
  EXPECT_DOUBLE_EQ(t(2, 1, 2), 3.0);
}

TEST(Tensor3Test, SumSlices) {
  Tensor3 t(2, 2, 2);
  t.SetSlice(0, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  t.SetSlice(1, Matrix{{10.0, 20.0}, {30.0, 40.0}});
  const Matrix sum = t.SumSlices();
  EXPECT_DOUBLE_EQ(sum(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
}

TEST(Tensor3Test, MinMaxNormalizationMapsToUnitInterval) {
  Tensor3 t(2, 2, 2);
  t.SetSlice(0, Matrix{{-2.0, 0.0}, {2.0, 6.0}});
  t.SetSlice(1, Matrix{{5.0, 5.0}, {5.0, 5.0}});  // Constant slice.
  t.NormalizeSlicesMinMax();
  EXPECT_DOUBLE_EQ(t(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(0, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(t(0, 0, 1), 0.25);
  // Constant slices collapse to zero.
  EXPECT_DOUBLE_EQ(t.Slice(1).MaxAbs(), 0.0);
}

TEST(Tensor3Test, MaxAbs) {
  Tensor3 t(1, 2, 2);
  t(0, 1, 0) = -7.0;
  EXPECT_DOUBLE_EQ(t.MaxAbs(), 7.0);
}

TEST(CsrMatrixTest, FromTripletsMergesDuplicates) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}, {0, 1, 0.0}});
  EXPECT_EQ(m.nnz(), 2u);  // Zero entry dropped, duplicates merged.
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(CsrMatrixTest, FromDenseRoundTrip) {
  const Matrix dense{{0.0, 1.5}, {-2.0, 0.0}};
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_EQ(sparse.nnz(), 2u);
  EXPECT_EQ(sparse.ToDense(), dense);
}

TEST(CsrMatrixTest, DenseProductsMatch) {
  Rng rng(5);
  Matrix dense = Matrix::RandomGaussian(4, 6, rng);
  for (double& v : dense.data()) {
    if (v < 0.0) v = 0.0;
  }
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  const Matrix b = Matrix::RandomGaussian(6, 3, rng);
  EXPECT_LT((sparse.MultiplyDense(b) - dense * b).MaxAbs(), 1e-12);
}

TEST(CsrMatrixTest, RowSums) {
  const CsrMatrix m =
      CsrMatrix::FromTriplets(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -1.0}});
  const Vector sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], -1.0);
}

TEST(CsrMatrixTest, TransposedMatchesDense) {
  Rng rng(7);
  Matrix dense = Matrix::RandomGaussian(3, 5, rng);
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_EQ(sparse.Transposed().ToDense(), dense.Transposed());
}

TEST(CsrMatrixTest, AddAndScale) {
  const CsrMatrix a = CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  const CsrMatrix b = CsrMatrix::FromTriplets(2, 2, {{0, 0, 2.0}, {1, 0, 3.0}});
  const CsrMatrix sum = a.AddScaled(b, 1.0);
  EXPECT_DOUBLE_EQ(sum.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sum.At(1, 0), 3.0);
  EXPECT_EQ(sum.nnz(), 2u);
  const CsrMatrix zero = CsrMatrix::FromTriplets(2, 2, {});
  const CsrMatrix scaled = zero.AddScaled(sum, 0.5);
  EXPECT_DOUBLE_EQ(scaled.At(1, 0), 1.5);
  // A sum that cancels to an exact zero is not stored.
  EXPECT_EQ(sum.AddScaled(b, -1.0).nnz(), 1u);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

}  // namespace
}  // namespace slampred
