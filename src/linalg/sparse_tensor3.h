// Sparse 3-way tensor: a stack of slices, the default representation
// for the per-network intimacy feature tensors X^k (d x n x n). A slice
// is either CSR (a few nnz per row) or a degree slice: the rank-one
// preferential-attachment map x_i·x_j kept as its n-vector x, because
// its products fill ~n² entries (DESIGN.md §9). Both forms go through
// the same normalise / sqrt transforms and are read only through At,
// Fiber, ForEachInRow and ToDense. Every kernel reproduces the dense
// Tensor3 kernel's per-element arithmetic (zero terms are exact no-ops
// for the sums involved), so results match the dense path bit for bit.
// Interop with Tensor3 is via FromDense/ToDense at the (rare) dense
// boundaries — see DESIGN.md "Sparse data path".

#ifndef SLAMPRED_LINALG_SPARSE_TENSOR3_H_
#define SLAMPRED_LINALG_SPARSE_TENSOR3_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/tensor3.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace slampred {

class BinaryReader;
class BinaryWriter;

/// Sparse 3-way tensor of shape (dim0, dim1, dim2): dim0 slices of
/// dim1 x dim2. Indexing follows the paper: T(k, i, j) is entry (i, j)
/// of the k-th slice.
class SparseTensor3 {
 public:
  SparseTensor3() = default;

  /// All-empty tensor of the given shape.
  SparseTensor3(std::size_t dim0, std::size_t dim1, std::size_t dim2);

  /// Converts a dense tensor slice by slice (entries with |v| <=
  /// drop_tol dropped).
  static SparseTensor3 FromDense(const Tensor3& dense, double drop_tol = 0.0);

  /// Densifies (the dense-boundary bridge for tests and oracles).
  Tensor3 ToDense() const;

  std::size_t dim0() const { return dim0_; }
  std::size_t dim1() const { return dim1_; }
  std::size_t dim2() const { return dim2_; }
  bool empty() const { return dim0_ == 0 || dim1_ == 0 || dim2_ == 0; }

  /// Value at (k, i, j); O(log nnz(row i of slice k)) for a CSR slice,
  /// O(1) for a degree slice.
  double At(std::size_t k, std::size_t i, std::size_t j) const;

  /// The k-th slice densified (the paper's X(k, :, :)).
  Matrix Slice(std::size_t k) const;

  /// Overwrites the k-th slice with a CSR slice.
  void SetSlice(std::size_t k, CsrMatrix slice);

  /// Overwrites the k-th (square) slice with the degree slice of `x`:
  /// entry (i, j) is x_i·x_j off the diagonal and 0 on it (so 0 wherever
  /// either x is 0). x must be non-negative, one value per user. The
  /// slice stores x, not its products.
  void SetDegreeSlice(std::size_t k, std::vector<double> x);

  /// True when slice k is held as a degree vector.
  bool IsDegreeSlice(std::size_t k) const;

  /// Calls fn(j, value) for every nonzero entry of row i of slice k, in
  /// ascending j — the one row reader of both slice forms.
  template <typename Fn>
  void ForEachInRow(std::size_t k, std::size_t i, Fn&& fn) const;

  /// The fibre T(:, i, j) — the feature vector of user pair (i, j)
  /// (length dim0, zeros where slices have no entry).
  Vector Fiber(std::size_t i, std::size_t j) const;

  /// Min-max scales each slice to [0, 1], matching the dense
  /// Tensor3::NormalizeSlicesMinMax entry for entry: the slice min/max
  /// include the implicit zeros, and constant slices map to all-zero.
  /// When a CSR slice's minimum is negative and implicit zeros exist
  /// they map to a nonzero value, so that slice densifies — the feature
  /// slices (non-negative, zero diagonal) never hit this path. A degree
  /// slice stays a degree slice: its implicit diagonal makes lo = 0 and
  /// its largest entry is the product of the two largest x, so the
  /// extremes need no pass over the products.
  void NormalizeSlicesMinMax();

  /// √v over stored values (the feature build's variance-stabilising
  /// transform; sqrt(0) = 0, so implicit zeros are unaffected).
  void ApplySqrt();

  /// Largest absolute value.
  double MaxAbs() const;

  /// Total stored entries across CSR slices (a degree slice stores
  /// none: its entries are computed).
  std::size_t TotalNnz() const;

  /// Heap bytes across slices (the FitMemoryStats counter): the CSR
  /// arrays, plus dim1 doubles per degree slice.
  std::size_t EstimatedBytes() const;

  /// Appends shape + every slice as CSR to `writer` (binary_io layout;
  /// a degree slice is written as the CSR of its entries, so the format
  /// knows one slice form).
  void Serialize(BinaryWriter& writer) const;

  /// Reads a tensor written by Serialize; slice shapes are validated
  /// against the tensor dims, and corrupt payloads yield an
  /// offset-diagnosed kIoError.
  static Result<SparseTensor3> Deserialize(BinaryReader& reader);

 private:
  // One transform applied to a degree slice's products: √v, or the
  // min-max step (v − lo) / range.
  struct DegreeStep {
    bool sqrt;
    double lo;
    double range;
  };
  struct SliceData {
    CsrMatrix csr;               // The slice, unless `x` is set.
    std::vector<double> x;       // Non-empty: a degree slice.
    std::vector<DegreeStep> steps;  // Applied to x_i·x_j in order.
  };

  // Entry value of a degree slice for the product x_i·x_j.
  static double DegreeValue(const SliceData& slice, double product) {
    for (const DegreeStep& step : slice.steps) {
      product = step.sqrt ? std::sqrt(product)
                          : (product - step.lo) / step.range;
    }
    return product;
  }
  // Largest entry of a degree slice (0 when no entry is nonzero).
  static double DegreeMax(const SliceData& slice);
  // The CSR of degree slice k's entries (for Serialize).
  CsrMatrix DegreeSliceCsr(std::size_t k) const;

  std::size_t dim0_ = 0;
  std::size_t dim1_ = 0;
  std::size_t dim2_ = 0;
  std::vector<SliceData> slices_;
};

template <typename Fn>
void SparseTensor3::ForEachInRow(std::size_t k, std::size_t i,
                                 Fn&& fn) const {
  const SliceData& slice = slices_[k];
  if (slice.x.empty()) {
    const CsrMatrix& m = slice.csr;
    for (std::size_t p = m.row_ptr()[i]; p < m.row_ptr()[i + 1]; ++p) {
      fn(m.col_idx()[p], m.values()[p]);
    }
    return;
  }
  const double xi = slice.x[i];
  if (xi == 0.0) return;
  for (std::size_t j = 0; j < slice.x.size(); ++j) {
    if (j == i || slice.x[j] == 0.0) continue;
    const double v = DegreeValue(slice, xi * slice.x[j]);
    if (v != 0.0) fn(j, v);
  }
}

}  // namespace slampred

#endif  // SLAMPRED_LINALG_SPARSE_TENSOR3_H_
