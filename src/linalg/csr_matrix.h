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
#include <functional>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/logging.h"
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

/// Appends the rows of one CsrMatrix::FromRowFill chunk to blocks of
/// columns and values, all of one size: the chunk grows without copying,
/// its slack is at most one part-filled block, and the freed blocks of
/// one build are reused by the next.
class CsrRowWriter {
 public:
  /// Appends (col, value) to the current row; columns must ascend within
  /// a row. An exact zero is dropped.
  void Push(std::size_t col, double value) {
    if (value == 0.0) return;
    SLAMPRED_CHECK(col < cols_ && (size_ == row_begin_ || last_col_ < col))
        << "row entry " << col << " outside " << cols_
        << " cols or out of order";
    const std::size_t slot = size_ % kBlockEntries;
    if (slot == 0) {
      col_blocks_.push_back(
          std::make_unique_for_overwrite<std::size_t[]>(kBlockEntries));
      value_blocks_.push_back(
          std::make_unique_for_overwrite<double[]>(kBlockEntries));
    }
    col_blocks_.back()[slot] = col;
    value_blocks_.back()[slot] = value;
    last_col_ = col;
    ++size_;
  }

  /// Closes the current row.
  void EndRow() {
    SLAMPRED_CHECK(rows_written_ < rows_) << "more than " << rows_ << " rows";
    row_nnz_[rows_written_++] = size_ - row_begin_;
    row_begin_ = size_;
  }

 private:
  friend class CsrMatrix;

  // 8 KiB per block and array, so a chunk of a few short rows wastes
  // little.
  static constexpr std::size_t kBlockEntries = 1024;

  std::size_t rows_ = 0;  // Of the chunk.
  std::size_t cols_ = 0;
  std::size_t* row_nnz_ = nullptr;  // Entry counts of the chunk's rows.
  std::size_t rows_written_ = 0;
  std::size_t row_begin_ = 0;
  std::size_t size_ = 0;  // Entries pushed.
  std::size_t last_col_ = 0;
  std::vector<std::unique_ptr<std::size_t[]>> col_blocks_;
  std::vector<std::unique_ptr<double[]>> value_blocks_;
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

  /// Builds a rows x cols 0/1 matrix directly from per-row sorted index
  /// lists (the adjacency-list layout of SocialGraph /
  /// HeterogeneousNetwork) in O(nnz), without a triplet sort. Rows past
  /// lists.size() are empty.
  static CsrMatrix FromSortedLists(
      std::size_t rows, std::size_t cols,
      const std::vector<std::vector<std::size_t>>& lists);

  /// The one construction path for computed rows. Rows [0, rows) are cut
  /// into ParallelFor chunks of `grain` rows, and `fill(row0, row1, out)`
  /// writes chunk [row0, row1) through `out`, one row after another,
  /// closing each with EndRow(). Each chunk appends to blocks of its
  /// own, so the result is the same for every thread count; the chunks
  /// are then copied into the CSR in row order, one array at a time, each
  /// block released as soon as it is copied, so the build never holds
  /// more than 1.5 times the result plus a block per chunk. Exact zeros
  /// are dropped.
  static CsrMatrix FromRowFill(
      std::size_t rows, std::size_t cols, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, CsrRowWriter&)>&
          fill);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Value at (i, j); O(log nnz(row i)).
  double At(std::size_t i, std::size_t j) const;

  /// C = A B with dense B (rows() x b.cols() dense result). Rows are
  /// processed in parallel (one writing chunk per output row); within a
  /// row the stored entries stream in ascending column order, matching
  /// the dense GEMM kernel's k order with its zero-skip, so the result
  /// is bit-identical to ToDense() * b.
  Matrix MultiplyDense(const Matrix& b) const;

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

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Dense scratch row with a first-touch list: the one scatter kernel
/// behind the computed rows of FromRowFill. Add() sums into a column,
/// recording it when first touched; Drain() visits the touched columns
/// in ascending order and resets them for the next row.
class SparseAccumulator {
 public:
  explicit SparseAccumulator(std::size_t cols)
      : values_(cols, 0.0), seen_(cols, 0) {}

  void Add(std::size_t col, double value) {
    if (!seen_[col]) {
      seen_[col] = 1;
      touched_.push_back(col);
    }
    values_[col] += value;
  }

  /// Running sum of `col` (0 when untouched).
  double operator[](std::size_t col) const { return values_[col]; }

  /// Columns touched since the last reset, ascending after Sort().
  const std::vector<std::size_t>& touched() const { return touched_; }
  void Sort();

  /// Multiplies every touched sum by `factor`.
  void Scale(double factor);

  /// Calls fn(col, sum) for every touched column in ascending order,
  /// then resets.
  template <typename Fn>
  void Drain(Fn fn) {
    Sort();
    for (std::size_t col : touched_) fn(col, values_[col]);
    Clear();
  }

  /// Resets every touched column to an untouched zero.
  void Clear();

 private:
  std::vector<double> values_;
  std::vector<char> seen_;
  std::vector<std::size_t> touched_;
};

}  // namespace slampred

#endif  // SLAMPRED_LINALG_CSR_MATRIX_H_
