#include "linalg/sparse_tensor3.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/binary_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

namespace {

// Rebuilds `m` with fn(value) applied to every stored entry (exact-zero
// results are dropped, preserving the CSR no-stored-zeros invariant).
template <typename Fn>
CsrMatrix MapValues(const CsrMatrix& m, Fn fn) {
  return CsrMatrix::FromRowFill(
      m.rows(), m.cols(),
      GrainForWork(m.nnz() / std::max<std::size_t>(1, m.rows()) + 1),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        for (std::size_t i = row0; i < row1; ++i) {
          for (std::size_t p = m.row_ptr()[i]; p < m.row_ptr()[i + 1]; ++p) {
            out.Push(m.col_idx()[p], fn(m.values()[p]));
          }
          out.EndRow();
        }
      });
}

}  // namespace

SparseTensor3::SparseTensor3(std::size_t dim0, std::size_t dim1,
                             std::size_t dim2)
    : dim0_(dim0), dim1_(dim1), dim2_(dim2) {
  slices_.assign(dim0, SliceData{CsrMatrix::FromTriplets(dim1, dim2, {}),
                                 {}, {}});
}

SparseTensor3 SparseTensor3::FromDense(const Tensor3& dense,
                                       double drop_tol) {
  SparseTensor3 out(dense.dim0(), dense.dim1(), dense.dim2());
  for (std::size_t k = 0; k < dense.dim0(); ++k) {
    out.slices_[k].csr = CsrMatrix::FromDense(dense.Slice(k), drop_tol);
  }
  return out;
}

Tensor3 SparseTensor3::ToDense() const {
  Tensor3 out(dim0_, dim1_, dim2_);
  for (std::size_t k = 0; k < dim0_; ++k) out.SetSlice(k, Slice(k));
  return out;
}

double SparseTensor3::At(std::size_t k, std::size_t i, std::size_t j) const {
  SLAMPRED_CHECK(k < dim0_) << "sparse tensor slice out of range";
  const SliceData& slice = slices_[k];
  if (slice.x.empty()) return slice.csr.At(i, j);
  SLAMPRED_CHECK(i < dim1_ && j < dim2_) << "sparse tensor index out of range";
  if (i == j || slice.x[i] == 0.0 || slice.x[j] == 0.0) return 0.0;
  return DegreeValue(slice, slice.x[i] * slice.x[j]);
}

Matrix SparseTensor3::Slice(std::size_t k) const {
  SLAMPRED_CHECK(k < dim0_) << "sparse tensor slice out of range";
  Matrix out(dim1_, dim2_);
  for (std::size_t i = 0; i < dim1_; ++i) {
    ForEachInRow(k, i, [&](std::size_t j, double v) { out(i, j) = v; });
  }
  return out;
}

void SparseTensor3::SetSlice(std::size_t k, CsrMatrix slice) {
  SLAMPRED_CHECK(k < dim0_ && slice.rows() == dim1_ && slice.cols() == dim2_)
      << "sparse slice shape mismatch";
  slices_[k] = SliceData{std::move(slice), {}, {}};
}

void SparseTensor3::SetDegreeSlice(std::size_t k, std::vector<double> x) {
  SLAMPRED_CHECK(k < dim0_ && dim1_ == dim2_ && x.size() == dim1_)
      << "degree slice shape mismatch";
  for (double v : x) SLAMPRED_CHECK(v >= 0.0) << "negative degree";
  if (x.empty()) {
    SetSlice(k, CsrMatrix::FromTriplets(0, 0, {}));
    return;
  }
  slices_[k] = SliceData{CsrMatrix(), std::move(x), {}};
}

bool SparseTensor3::IsDegreeSlice(std::size_t k) const {
  SLAMPRED_CHECK(k < dim0_) << "sparse tensor slice out of range";
  return !slices_[k].x.empty();
}

double SparseTensor3::DegreeMax(const SliceData& slice) {
  // The largest product of two different users' x; every step is
  // monotone non-decreasing, so it maps to the largest entry.
  double top = 0.0;
  double second = 0.0;
  for (double v : slice.x) {
    if (v > top) {
      second = top;
      top = v;
    } else if (v > second) {
      second = v;
    }
  }
  return second > 0.0 ? DegreeValue(slice, top * second) : 0.0;
}

CsrMatrix SparseTensor3::DegreeSliceCsr(std::size_t k) const {
  return CsrMatrix::FromRowFill(
      dim1_, dim2_, GrainForWork(dim2_),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        for (std::size_t i = row0; i < row1; ++i) {
          ForEachInRow(k, i, [&](std::size_t j, double v) { out.Push(j, v); });
          out.EndRow();
        }
      });
}

Vector SparseTensor3::Fiber(std::size_t i, std::size_t j) const {
  SLAMPRED_CHECK(i < dim1_ && j < dim2_) << "sparse fibre out of range";
  Vector out(dim0_);
  for (std::size_t k = 0; k < dim0_; ++k) out[k] = At(k, i, j);
  return out;
}

void SparseTensor3::NormalizeSlicesMinMax() {
  const std::size_t per_slice = dim1_ * dim2_;
  if (per_slice == 0) return;
  for (std::size_t k = 0; k < dim0_; ++k) {
    SliceData& data = slices_[k];
    if (!data.x.empty()) {
      // Entries are positive and the diagonal is an implicit zero, so
      // the CSR scan below would find lo = +0.0 and hi = DegreeMax.
      const double lo = 0.0;
      const double range = DegreeMax(data) - lo;
      if (range <= 0.0) {
        SetSlice(k, CsrMatrix::FromTriplets(dim1_, dim2_, {}));
      } else {
        data.steps.push_back({false, lo, range});
      }
      continue;
    }
    const CsrMatrix& slice = data.csr;
    // min/max are exactly associative-commutative, so scanning the
    // stored values and folding in one 0.0 for the implicit zeros gives
    // the same extrema as the dense full-slice scan.
    double lo = 0.0;
    double hi = 0.0;
    const bool has_implicit_zeros = slice.nnz() < per_slice;
    if (slice.nnz() > 0) {
      lo = has_implicit_zeros ? std::min(slice.values()[0], 0.0)
                              : slice.values()[0];
      hi = has_implicit_zeros ? std::max(slice.values()[0], 0.0)
                              : slice.values()[0];
      for (double v : slice.values()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    const double range = hi - lo;
    if (range <= 0.0) {
      // Constant slice (dense maps it to all-zero).
      data.csr = CsrMatrix::FromTriplets(dim1_, dim2_, {});
      continue;
    }
    if (lo < 0.0 && has_implicit_zeros) {
      // Implicit zeros shift to (0 − lo)/range ≠ 0: the slice is dense
      // after scaling. Feature slices never take this branch.
      Matrix dense = slice.ToDense();
      for (double& v : dense.data()) v = (v - lo) / range;
      data.csr = CsrMatrix::FromDense(dense);
      continue;
    }
    // lo is exactly +0.0 when implicit zeros exist (non-negative slice),
    // so stored entries scale with the dense expression and implicit
    // zeros map to (0 − 0)/range = 0, staying implicit.
    data.csr = MapValues(slice, [&](double v) { return (v - lo) / range; });
  }
}

void SparseTensor3::ApplySqrt() {
  for (SliceData& slice : slices_) {
    if (!slice.x.empty()) {
      slice.steps.push_back({true, 0.0, 0.0});
      continue;
    }
    slice.csr = MapValues(slice.csr, [](double v) { return std::sqrt(v); });
  }
}

double SparseTensor3::MaxAbs() const {
  double best = 0.0;
  for (const SliceData& slice : slices_) {
    best = std::max(best, slice.x.empty() ? slice.csr.MaxAbs()
                                          : DegreeMax(slice));
  }
  return best;
}

std::size_t SparseTensor3::TotalNnz() const {
  std::size_t nnz = 0;
  for (const SliceData& slice : slices_) {
    if (slice.x.empty()) nnz += slice.csr.nnz();
  }
  return nnz;
}

std::size_t SparseTensor3::EstimatedBytes() const {
  std::size_t bytes = 0;
  for (const SliceData& slice : slices_) {
    bytes += slice.x.empty() ? slice.csr.EstimatedBytes()
                             : slice.x.size() * sizeof(double);
  }
  return bytes;
}

void SparseTensor3::Serialize(BinaryWriter& writer) const {
  writer.WriteU64(dim0_);
  writer.WriteU64(dim1_);
  writer.WriteU64(dim2_);
  for (std::size_t k = 0; k < dim0_; ++k) {
    if (slices_[k].x.empty()) {
      slices_[k].csr.Serialize(writer);
    } else {
      DegreeSliceCsr(k).Serialize(writer);
    }
  }
}

Result<SparseTensor3> SparseTensor3::Deserialize(BinaryReader& reader) {
  const std::size_t header_offset = reader.offset();
  auto dim0 = reader.ReadU64();
  if (!dim0.ok()) return dim0.status();
  auto dim1 = reader.ReadU64();
  if (!dim1.ok()) return dim1.status();
  auto dim2 = reader.ReadU64();
  if (!dim2.ok()) return dim2.status();
  // Each slice record is at least its 24-byte header, so dim0 can be
  // sanity-bounded against the remaining bytes before any allocation.
  if (dim0.value() > reader.remaining() / 24) {
    return Status::IoError("corrupt tensor slice count " +
                           std::to_string(dim0.value()) + " at offset " +
                           std::to_string(header_offset));
  }
  // Slices are appended as they are read, so nothing is sized by dim1
  // or dim2 before a slice's own payload has shown that many rows.
  SparseTensor3 tensor;
  tensor.dim0_ = static_cast<std::size_t>(dim0.value());
  tensor.dim1_ = static_cast<std::size_t>(dim1.value());
  tensor.dim2_ = static_cast<std::size_t>(dim2.value());
  for (std::size_t k = 0; k < tensor.dim0_; ++k) {
    auto slice = CsrMatrix::Deserialize(reader);
    if (!slice.ok()) return slice.status();
    if (slice.value().rows() != tensor.dim1_ ||
        slice.value().cols() != tensor.dim2_) {
      return Status::IoError(
          "tensor slice " + std::to_string(k) + " has shape " +
          std::to_string(slice.value().rows()) + "x" +
          std::to_string(slice.value().cols()) + ", expected " +
          std::to_string(tensor.dim1_) + "x" + std::to_string(tensor.dim2_) +
          " (record at offset " + std::to_string(header_offset) + ")");
    }
    tensor.slices_.push_back(SliceData{std::move(slice).value(), {}, {}});
  }
  return tensor;
}

}  // namespace slampred
