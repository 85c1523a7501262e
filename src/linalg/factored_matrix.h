// Factored low-rank matrix S = U·Vᵀ — the iterate representation of the
// factored solver backend (optim/factored_solver.h).
//
// The dense solver carries the n×n predictor matrix S explicitly, which
// caps it at the sizes a dense Jacobi SVD can chew through. A factored
// iterate stores only the two n×r factors (r ≪ n), so every per-entry
// quantity the solver needs — norms, inner products, distances — is
// computed through r×r Gram matrices in O(n·r²) without ever
// materialising S. Densification (ToDense) exists for serving and for
// the equivalence tests against the dense oracle; the solve path never
// calls it.
//
// All kernels follow the library's determinism contract: chunk
// geometry depends only on the problem shape, every output element is
// written by exactly one chunk (or reduced in chunk order), so results
// are bit-identical for every thread count.

#ifndef SLAMPRED_LINALG_FACTORED_MATRIX_H_
#define SLAMPRED_LINALG_FACTORED_MATRIX_H_

#include <cstddef>

#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

class BinaryReader;
class BinaryWriter;

/// Low-rank matrix held as S = U·Vᵀ with U (m×r) and V (n×r). An empty
/// pair of factors represents the 0×0 matrix; rank-0 factors (r = 0)
/// represent an exact zero matrix of shape m×n.
class FactoredMatrix {
 public:
  FactoredMatrix() = default;

  /// Wraps the factor pair; u.cols() must equal v.cols().
  FactoredMatrix(Matrix u, Matrix v);

  /// The exact zero matrix of shape rows×cols (rank-0 factors).
  static FactoredMatrix Zero(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of factor columns (an upper bound on the true rank).
  std::size_t rank() const { return u_.cols(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  const Matrix& u() const { return u_; }
  const Matrix& v() const { return v_; }

  /// Entry (i, j) = Σ_r U(i,r)·V(j,r); O(rank) per call.
  double At(std::size_t i, std::size_t j) const;

  /// Materialises U·Vᵀ (row-parallel, deterministic). O(m·n·r) time and
  /// O(m·n) memory — serving/test path only.
  Matrix ToDense() const;

  /// (U·Vᵀ)·b via U·(Vᵀb); O((m+n)·r·b.cols()) — never m·n.
  Matrix MultiplyDense(const Matrix& b) const;

  /// (U·Vᵀ)ᵀ·b = V·(Uᵀb).
  Matrix MultiplyTransposeDense(const Matrix& b) const;

  /// Scales the represented matrix by `factor` (absorbed into U).
  FactoredMatrix Scaled(double factor) const;

  /// (S + Sᵀ)/2 without densifying: U' = [U/2 | V/2], V' = [V | U].
  /// The factor count doubles; the next nuclear prox re-truncates it.
  FactoredMatrix Symmetrized() const;

  /// ‖S‖_F through the r×r Gram trick: ‖UVᵀ‖²_F = tr((UᵀU)(VᵀV)).
  double FrobeniusNorm() const;

  /// ‖this − other‖_F via the polarisation identity on Gram inner
  /// products (clamped at 0 against cancellation). Shapes must match.
  double DistanceFrobenius(const FactoredMatrix& other) const;

  /// Heap bytes of the two factors.
  std::size_t EstimatedBytes() const;

  /// True iff every factor entry is finite.
  bool IsFinite() const;

  /// Appends both factors to `writer` (binary_io layout: U then V).
  void Serialize(BinaryWriter& writer) const;

  /// Reads a pair written by Serialize; rejects mismatched factor
  /// column counts with a diagnosed kIoError.
  static Result<FactoredMatrix> Deserialize(BinaryReader& reader);

  bool operator==(const FactoredMatrix& other) const {
    return u_ == other.u_ && v_ == other.v_;
  }

 private:
  Matrix u_;  // m × r.
  Matrix v_;  // n × r.
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// ⟨A, B⟩_F = tr((UₐᵀU_b)(V_bᵀVₐ)) for two factored matrices of the
/// same shape — O((m+n)·rₐ·r_b).
double InnerProduct(const FactoredMatrix& a, const FactoredMatrix& b);

}  // namespace slampred

#endif  // SLAMPRED_LINALG_FACTORED_MATRIX_H_
