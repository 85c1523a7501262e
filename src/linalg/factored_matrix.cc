#include "linalg/factored_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/matrix_ops.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace slampred {

FactoredMatrix::FactoredMatrix(Matrix u, Matrix v)
    : u_(std::move(u)), v_(std::move(v)) {
  SLAMPRED_CHECK(u_.cols() == v_.cols())
      << "factor column counts must match: " << u_.cols() << " vs "
      << v_.cols();
  rows_ = u_.rows();
  cols_ = v_.rows();
}

FactoredMatrix FactoredMatrix::Zero(std::size_t rows, std::size_t cols) {
  FactoredMatrix zero;
  zero.u_ = Matrix(rows, 0);
  zero.v_ = Matrix(cols, 0);
  zero.rows_ = rows;
  zero.cols_ = cols;
  return zero;
}

double FactoredMatrix::At(std::size_t i, std::size_t j) const {
  SLAMPRED_CHECK(i < rows_ && j < cols_) << "factored index out of range";
  double sum = 0.0;
  const std::size_t r = rank();
  for (std::size_t c = 0; c < r; ++c) sum += u_(i, c) * v_(j, c);
  return sum;
}

Matrix FactoredMatrix::ToDense() const {
  if (rank() == 0) return Matrix(rows_, cols_);
  return MultiplyABt(u_, v_);
}

Matrix FactoredMatrix::MultiplyDense(const Matrix& b) const {
  SLAMPRED_CHECK(b.rows() == cols_) << "factored multiply shape mismatch";
  if (rank() == 0) return Matrix(rows_, b.cols());
  return u_ * MultiplyAtB(v_, b);
}

Matrix FactoredMatrix::MultiplyTransposeDense(const Matrix& b) const {
  SLAMPRED_CHECK(b.rows() == rows_) << "factored multiply shape mismatch";
  if (rank() == 0) return Matrix(cols_, b.cols());
  return v_ * MultiplyAtB(u_, b);
}

FactoredMatrix FactoredMatrix::Scaled(double factor) const {
  return FactoredMatrix(u_ * factor, v_);
}

FactoredMatrix FactoredMatrix::Symmetrized() const {
  SLAMPRED_CHECK(rows_ == cols_) << "symmetrize needs a square matrix";
  const std::size_t r = rank();
  Matrix su(rows_, 2 * r);
  Matrix sv(rows_, 2 * r);
  su.SetBlock(0, 0, u_ * 0.5);
  su.SetBlock(0, r, v_ * 0.5);
  sv.SetBlock(0, 0, v_);
  sv.SetBlock(0, r, u_);
  return FactoredMatrix(std::move(su), std::move(sv));
}

double FactoredMatrix::FrobeniusNorm() const {
  return std::sqrt(std::max(0.0, InnerProduct(*this, *this)));
}

double FactoredMatrix::DistanceFrobenius(const FactoredMatrix& other) const {
  SLAMPRED_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "factored distance shape mismatch";
  const double aa = InnerProduct(*this, *this);
  const double bb = InnerProduct(other, other);
  const double ab = InnerProduct(*this, other);
  return std::sqrt(std::max(0.0, aa - 2.0 * ab + bb));
}

std::size_t FactoredMatrix::EstimatedBytes() const {
  return (u_.data().size() + v_.data().size()) * sizeof(double);
}

bool FactoredMatrix::IsFinite() const {
  for (double x : u_.data()) {
    if (!std::isfinite(x)) return false;
  }
  for (double x : v_.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

void FactoredMatrix::Serialize(BinaryWriter& writer) const {
  u_.Serialize(writer);
  v_.Serialize(writer);
}

Result<FactoredMatrix> FactoredMatrix::Deserialize(BinaryReader& reader) {
  auto u = Matrix::Deserialize(reader);
  if (!u.ok()) return u.status();
  const std::size_t v_offset = reader.offset();
  auto v = Matrix::Deserialize(reader);
  if (!v.ok()) return v.status();
  if (u.value().cols() != v.value().cols()) {
    return Status::IoError(
        "factored matrix with mismatched factor ranks " +
        std::to_string(u.value().cols()) + " vs " +
        std::to_string(v.value().cols()) + " at offset " +
        std::to_string(v_offset));
  }
  return FactoredMatrix(std::move(u).value(), std::move(v).value());
}

double InnerProduct(const FactoredMatrix& a, const FactoredMatrix& b) {
  SLAMPRED_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "factored inner product shape mismatch";
  if (a.rank() == 0 || b.rank() == 0) return 0.0;
  // ⟨UₐVₐᵀ, U_bV_bᵀ⟩ = tr((UₐᵀU_b)(V_bᵀVₐ)); both Grams are r×r.
  const Matrix uab = MultiplyAtB(a.u(), b.u());
  const Matrix vba = MultiplyAtB(b.v(), a.v());
  double sum = 0.0;
  for (std::size_t i = 0; i < uab.rows(); ++i) {
    for (std::size_t j = 0; j < uab.cols(); ++j) {
      sum += uab(i, j) * vba(j, i);
    }
  }
  return sum;
}

}  // namespace slampred
