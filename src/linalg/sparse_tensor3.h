// Sparse 3-way tensor: a stack of CSR slices, the default representation
// for the per-network intimacy feature tensors X^k (d x n x n, a few nnz
// per row per slice). Mirrors the Tensor3 API it replaces; every kernel
// reproduces the dense kernel's per-element accumulation order (zero
// terms are exact no-ops for the sums involved), so results match the
// dense path bit for bit. Interop with Tensor3 is via FromDense/ToDense
// at the (rare) dense boundaries — see DESIGN.md "Sparse data path".

#ifndef SLAMPRED_LINALG_SPARSE_TENSOR3_H_
#define SLAMPRED_LINALG_SPARSE_TENSOR3_H_

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

/// Sparse 3-way tensor of shape (dim0, dim1, dim2): dim0 CSR slices of
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

  /// Densifies (the dense-boundary bridge; intended for the embedding
  /// projection and tests).
  Tensor3 ToDense() const;

  std::size_t dim0() const { return dim0_; }
  std::size_t dim1() const { return dim1_; }
  std::size_t dim2() const { return dim2_; }
  bool empty() const { return dim0_ == 0 || dim1_ == 0 || dim2_ == 0; }

  /// Value at (k, i, j); O(log nnz(row i of slice k)).
  double At(std::size_t k, std::size_t i, std::size_t j) const;

  /// The k-th CSR slice.
  const CsrMatrix& SliceCsr(std::size_t k) const;

  /// The k-th slice densified (the paper's X(k, :, :)).
  Matrix Slice(std::size_t k) const;

  /// Overwrites the k-th slice.
  void SetSlice(std::size_t k, CsrMatrix slice);

  /// The fibre T(:, i, j) — the feature vector of user pair (i, j)
  /// (length dim0, zeros where slices have no entry).
  Vector Fiber(std::size_t i, std::size_t j) const;

  /// Min-max scales each slice to [0, 1], matching the dense
  /// Tensor3::NormalizeSlicesMinMax entry for entry: the slice min/max
  /// include the implicit zeros, and constant slices map to all-zero.
  /// When a slice's minimum is negative and implicit zeros exist they
  /// map to a nonzero value, so that slice densifies — the feature
  /// slices (non-negative, zero diagonal) never hit this path.
  void NormalizeSlicesMinMax();

  /// √v over stored values (the feature build's variance-stabilising
  /// transform; sqrt(0) = 0, so implicit zeros are unaffected).
  void ApplySqrt();

  /// Largest absolute stored value.
  double MaxAbs() const;

  /// Total stored entries across slices.
  std::size_t TotalNnz() const;

  /// Heap bytes across slices (the FitMemoryStats counter).
  std::size_t EstimatedBytes() const;

  /// Appends shape + every CSR slice to `writer` (binary_io layout).
  void Serialize(BinaryWriter& writer) const;

  /// Reads a tensor written by Serialize; slice shapes are validated
  /// against the tensor dims, and corrupt payloads yield an
  /// offset-diagnosed kIoError.
  static Result<SparseTensor3> Deserialize(BinaryReader& reader);

 private:
  std::size_t dim0_ = 0;
  std::size_t dim1_ = 0;
  std::size_t dim2_ = 0;
  std::vector<CsrMatrix> slices_;
};

}  // namespace slampred

#endif  // SLAMPRED_LINALG_SPARSE_TENSOR3_H_
