// Compressed sparse row matrix — the default representation for the
// pipeline's data matrices: the social adjacency Aᵗ, the intimacy
// feature slices, the attribute profiles, and the link-instance
// indicator matrices W_A / W_S / W_D. Only the solver iterate S and the
// SVD factors stay dense (see DESIGN.md "Sparse data path").
//
// Every kernel that can run in parallel goes through the deterministic
// ParallelFor, and the accumulation order of each output element is the
// same as the dense reference kernel's (k ascending, zero terms skipped
// — an exact no-op for the sums involved), so sparse results match the
// dense path bit for bit.

#ifndef SLAMPRED_LINALG_CSR_MATRIX_H_
#define SLAMPRED_LINALG_CSR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace slampred {

class BinaryReader;
class BinaryWriter;

/// Coordinate-format triplet used to assemble CSR matrices.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Immutable CSR sparse matrix.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Builds from triplets; duplicate (row, col) entries are summed and
  /// exact zeros are dropped.
  static CsrMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> triplets);

  /// Converts a dense matrix, dropping entries with |v| <= drop_tol.
  static CsrMatrix FromDense(const Matrix& dense, double drop_tol = 0.0);

  /// Builds a 0/1 matrix directly from per-row sorted index lists (the
  /// adjacency-list layout of SocialGraph / HeterogeneousNetwork) in
  /// O(nnz), without a triplet sort.
  static CsrMatrix FromSortedLists(
      const std::vector<std::vector<std::size_t>>& lists, std::size_t cols);

  /// Sparse identity of order n.
  static CsrMatrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Value at (i, j); O(log nnz(row i)).
  double At(std::size_t i, std::size_t j) const;

  /// y = A x.
  Vector Multiply(const Vector& x) const;

  /// y = Aᵀ x.
  Vector MultiplyTranspose(const Vector& x) const;

  /// C = A B with dense B (rows() x b.cols() dense result). Rows are
  /// processed in parallel (one writing chunk per output row); within a
  /// row the stored entries stream in ascending column order, matching
  /// the dense GEMM kernel's k order with its zero-skip, so the result
  /// is bit-identical to ToDense() * b.
  Matrix MultiplyDense(const Matrix& b) const;

  /// C = Aᵀ B with dense B.
  Matrix MultiplyTransposeDense(const Matrix& b) const;

  /// C = A B with sparse B (row-gather SpGEMM). Per output element the
  /// inner index k runs strictly ascending and zero products are
  /// skipped — the same accumulation order as the dense GEMM kernel, so
  /// ToDense() of the result equals the dense product (computed exact
  /// zeros are dropped, like FromDense).
  CsrMatrix MultiplySparse(const CsrMatrix& b) const;

  /// Row sums (the degree vector of an adjacency-like matrix).
  Vector RowSums() const;

  /// Number of column indices rows u and v both store: a merge over the
  /// two sorted rows (|Γ(u) ∩ Γ(v)|, the common-neighbour count, of an
  /// adjacency).
  std::size_t RowIntersectionCount(std::size_t u, std::size_t v) const;

  /// Densifies (intended for tests / small matrices).
  Matrix ToDense() const;

  /// Transposed copy.
  CsrMatrix Transposed() const;

  /// Entry-wise A + factor · B via one sorted merge per row, written
  /// straight into the result's arrays. Values combine as
  /// a + factor * b with absent entries contributing exact zeros (and
  /// sums that cancel to exact zeros dropped), so the result matches the
  /// dense expression entry for entry.
  CsrMatrix AddScaled(const CsrMatrix& other, double factor) const;

  /// Sum of all stored values.
  double Sum() const;

  /// Σ |v| over stored values (equals the dense ℓ₁ norm).
  double NormL1() const;

  /// Largest |v| over stored values (0 for an empty matrix).
  double MaxAbs() const;

  /// Heap bytes held by the CSR arrays (row_ptr + col_idx + values) —
  /// the memory-stats counter surfaced by FitMemoryStats.
  std::size_t EstimatedBytes() const;

  /// CSR internals (exposed for iteration by the Laplacian builder).
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Appends shape + CSR arrays to `writer` (binary_io layout).
  void Serialize(BinaryWriter& writer) const;

  /// Reads a matrix written by Serialize. The CSR invariants (row_ptr
  /// monotone from 0 to nnz, column indices in range and ascending per
  /// row) are re-validated so a corrupt payload yields an
  /// offset-diagnosed kIoError instead of a matrix that reads out of
  /// bounds later.
  static Result<CsrMatrix> Deserialize(BinaryReader& reader);

  /// One (col, value) entry of a row under assembly.
  using RowEntry = std::pair<std::size_t, double>;

  /// O(nnz) assembly from per-row entry lists. Each list must be sorted
  /// by column with no duplicates; exact zeros are dropped. This is the
  /// fast path for kernels that emit whole rows in parallel.
  static CsrMatrix FromRows(std::size_t cols,
                            std::vector<std::vector<RowEntry>> rows);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Incremental triplet collector — the builder convenience for code that
/// discovers entries in arbitrary order (duplicates are summed, exact
/// zeros dropped, like FromTriplets).
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  void Add(std::size_t row, std::size_t col, double value) {
    triplets_.push_back({row, col, value});
  }
  std::size_t size() const { return triplets_.size(); }

  /// Consumes the collected triplets.
  CsrMatrix Build() {
    return CsrMatrix::FromTriplets(rows_, cols_, std::move(triplets_));
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

}  // namespace slampred

#endif  // SLAMPRED_LINALG_CSR_MATRIX_H_
