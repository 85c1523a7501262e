// Per-row affine quantization of score matrices — the storage layer of
// the quantized serving artifacts (DESIGN.md §15).
//
// RowCodes is the one code store: a code width, one (offset, scale)
// pair per row, and one u8 or u16 code per entry. A row is fitted to
// its value range: offset = row minimum, scale = (row max − row min) /
// levels (255 for u8, 65535 for u16), and every entry stores the
// nearest code clamp(round((s − offset)/scale)). Dequantization is
// offset + scale·code, so
//
//   * the per-element round-trip error is bounded by scale/2 (up to
//     IEEE-754 rounding slack of a few ulps),
//   * a constant row has scale 0 and round-trips exactly,
//   * code 0 dequantizes to the row offset bit for bit.
//
// Three index layouts sit over the store and decide which row's
// parameters decode which entry:
//
//   * QuantizedMatrix — full rows; entry (i, j) under row i.
//   * QuantizedSymmetricDense — the packed upper triangle of a shard
//     block; entry (i, j) under row min(i, j).
//   * QuantizedSymmetricCsr — the boundary CSR of a sharded artifact:
//     the full mirrored pattern in memory, only the strict upper
//     triangle on disk; entry (u, v) under row min(u, v).
//
// The symmetric layouts therefore serve exactly symmetric matrices.
// Quantization rejects non-finite input with a Status instead of
// encoding garbage, and deserialization re-validates the scale and
// offset vectors and bounds every count by the bytes left — a corrupt
// scale or an absurd count is an offset-diagnosed kIoError, never a
// silent mis-dequantization or a crash.

#ifndef SLAMPRED_LINALG_QUANTIZED_MATRIX_H_
#define SLAMPRED_LINALG_QUANTIZED_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

class BinaryReader;
class BinaryWriter;

/// Code width of a quantized payload.
enum class QuantizationBits : std::uint8_t {
  kU8 = 8,    ///< 256 levels per row.
  kU16 = 16,  ///< 65536 levels per row.
};

/// Stable name ("u8" / "u16").
const char* QuantizationBitsName(QuantizationBits bits);

/// Number of code steps per row (levels = 2^bits − 1).
inline std::size_t QuantizationLevels(QuantizationBits bits) {
  return bits == QuantizationBits::kU8 ? 255u : 65535u;
}

/// Per-row (offset, scale) parameters plus a flat array of codes in one
/// width — the store under every quantized layout, and the only code
/// that branches on the width. Which row decodes which entry is the
/// layout's choice.
class RowCodes {
 public:
  RowCodes() = default;

  /// `rows` rows with zero parameters and `entries` zero codes.
  RowCodes(QuantizationBits bits, std::size_t rows, std::size_t entries);

  QuantizationBits bits() const { return bits_; }
  /// Bytes per code.
  std::size_t width() const { return static_cast<std::size_t>(bits_) / 8; }
  std::size_t rows() const { return offsets_.size(); }
  std::size_t entries() const;

  /// Resizes the code array to `entries` (new codes are 0).
  void Resize(std::size_t entries);

  /// Fits row `r` to the value range [lo, hi]: offset lo, scale
  /// (hi − lo) / levels, or 0 for an empty range.
  void FitRow(std::size_t r, double lo, double hi);

  /// Stores at entries e .. e+count−1 the codes of `values` under row
  /// `r`'s parameters: the nearest step, clamped to [0, levels].
  void EncodeRun(std::size_t r, std::size_t e, const double* values,
                 std::size_t count);
  void Encode(std::size_t r, std::size_t e, double value) {
    EncodeRun(r, e, &value, 1);
  }

  /// Dequantizes entry `e` under row `r`'s parameters.
  double Decode(std::size_t r, std::size_t e) const {
    return offsets_[r] + scales_[r] * static_cast<double>(Code(e));
  }

  /// Dequantizes entries e .. e+count−1 under row `r` into `out`.
  void DecodeRun(std::size_t r, std::size_t e, std::size_t count,
                 double* out) const;

  /// Raw code of entry `e`.
  std::size_t Code(std::size_t e) const;
  void SetCode(std::size_t e, std::size_t code);

  const std::vector<double>& offsets() const { return offsets_; }
  const std::vector<double>& scales() const { return scales_; }

  /// Heap bytes held (codes + row parameters).
  std::size_t HeapBytes() const {
    return entries() * width() + 2 * rows() * sizeof(double);
  }

  /// Finite offsets and finite non-negative scales; `context` names the
  /// layout in the diagnosis.
  Status CheckParams(const char* context) const;

  /// Appends the row offsets, then the row scales.
  void WriteParams(BinaryWriter& writer) const;
  /// Appends every code, in entry order.
  void WriteCodes(BinaryWriter& writer) const;
  /// Appends the code of entry `e`.
  void WriteCode(BinaryWriter& writer, std::size_t e) const;

  /// Reads the parameters of `rows` rows written by WriteParams into a
  /// store with no codes, then checks them (CheckParams).
  static Result<RowCodes> ReadParams(BinaryReader& reader,
                                     QuantizationBits bits, std::size_t rows,
                                     const char* context);
  /// Reads `count` codes written by WriteCodes, replacing the codes.
  Status ReadCodes(BinaryReader& reader, std::size_t count);
  /// Reads one code written by WriteCode.
  Result<std::size_t> ReadCode(BinaryReader& reader) const;

  bool operator==(const RowCodes& other) const = default;

 private:
  // Calls `fn` with the code vector of the store's width.
  template <typename Fn>
  decltype(auto) WithCodes(Fn&& fn) const {
    return bits_ == QuantizationBits::kU8 ? fn(codes8_) : fn(codes16_);
  }
  template <typename Fn>
  decltype(auto) WithCodes(Fn&& fn) {
    return bits_ == QuantizationBits::kU8 ? fn(codes8_) : fn(codes16_);
  }

  QuantizationBits bits_ = QuantizationBits::kU8;
  std::vector<double> offsets_;         // size rows
  std::vector<double> scales_;          // size rows, >= 0
  std::vector<std::uint8_t> codes8_;    // the codes when bits == kU8
  std::vector<std::uint16_t> codes16_;  // the codes when bits == kU16
};

// Defined after the class: WithCodes deduces its return type.
inline std::size_t RowCodes::entries() const {
  return WithCodes([](const auto& codes) { return codes.size(); });
}

inline std::size_t RowCodes::Code(std::size_t e) const {
  return WithCodes(
      [e](const auto& codes) { return static_cast<std::size_t>(codes[e]); });
}

/// Dense matrix over the store: row i's codes are the entries
/// i·cols .. i·cols + cols − 1. Immutable after construction.
class QuantizedMatrix {
 public:
  /// Empty 0x0 matrix.
  QuantizedMatrix() = default;

  /// Quantizes `m` row by row. Fails with kInvalidArgument when any
  /// entry is NaN or ±inf (quantizing garbage would serve garbage).
  static Result<QuantizedMatrix> FromMatrix(const Matrix& m,
                                            QuantizationBits bits);

  std::size_t rows() const { return codes_.rows(); }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows() == 0 || cols_ == 0; }
  QuantizationBits bits() const { return codes_.bits(); }

  /// Dequantized entry (i, j); unchecked.
  double At(std::size_t i, std::size_t j) const {
    return codes_.Decode(i, i * cols_ + j);
  }

  /// Raw code of entry (i, j); unchecked.
  std::size_t CodeAt(std::size_t i, std::size_t j) const {
    return codes_.Code(i * cols_ + j);
  }

  /// Fills `out` (resized to cols) with the dequantized row `i`.
  void RowScores(std::size_t i, std::vector<double>& out) const;

  /// Per-row quantization parameters.
  const std::vector<double>& offsets() const { return codes_.offsets(); }
  const std::vector<double>& scales() const { return codes_.scales(); }

  /// Dequantizes the whole matrix (tests / round-trip checks).
  Matrix ToDense() const;

  /// Bytes of the quantized representation (codes + row parameters).
  std::size_t PayloadBytes() const { return codes_.HeapBytes(); }

  /// Heap bytes held (the in-memory footprint).
  std::size_t EstimatedBytes() const { return PayloadBytes(); }

  /// Parameter and shape invariants: finite offsets, finite
  /// non-negative scales, and rows·cols codes.
  Status Validate() const;

  /// Appends bits + shape + row parameters + codes to `writer`.
  void Serialize(BinaryWriter& writer) const;

  /// Reads a matrix written by Serialize. Truncation, an unknown code
  /// width, or a corrupt (non-finite / negative) scale or offset vector
  /// all fail with an offset-diagnosed kIoError.
  static Result<QuantizedMatrix> Deserialize(BinaryReader& reader);

  bool operator==(const QuantizedMatrix& other) const = default;

 private:
  std::size_t cols_ = 0;
  RowCodes codes_;
};

/// Quantized square block that stores only the upper triangle —
/// the per-cluster shard-block counterpart. Shard blocks come from
/// U·Vᵀ products that are symmetric up to the last ulp, so the upper
/// entry (i, j), i <= j is taken as canonical: both (i, j) and (j, i)
/// dequantize to the identical value under row i's parameters, and the
/// store holds only n(n+1)/2 codes. FromMatrix rejects blocks whose
/// asymmetry exceeds floating-point noise rather than silently
/// rewriting genuinely asymmetric scores.
class QuantizedSymmetricDense {
 public:
  QuantizedSymmetricDense() = default;

  /// Quantizes a square, symmetric-up-to-ulp matrix. Fails with
  /// kInvalidArgument on non-square shape, NaN/inf entries, or
  /// asymmetry beyond |a − b| <= 1e-9 · (|a| + |b| + 1).
  static Result<QuantizedSymmetricDense> FromMatrix(const Matrix& m,
                                                    QuantizationBits bits);

  std::size_t rows() const { return codes_.rows(); }
  std::size_t cols() const { return rows(); }
  bool empty() const { return rows() == 0; }
  QuantizationBits bits() const { return codes_.bits(); }

  /// Dequantized entry; At(i, j) == At(j, i) bit for bit.
  double At(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    return codes_.Decode(i, TriIndex(i, j));
  }

  /// Fills `out` (resized to rows) with the dequantized row `i`.
  void RowScores(std::size_t i, std::vector<double>& out) const;

  const std::vector<double>& offsets() const { return codes_.offsets(); }
  const std::vector<double>& scales() const { return codes_.scales(); }

  /// Heap bytes held (triangular codes + row parameters).
  std::size_t EstimatedBytes() const { return codes_.HeapBytes(); }

  void Serialize(BinaryWriter& writer) const;

  /// Reads a block written by Serialize; truncation and corrupt
  /// scale/offset vectors fail with an offset-diagnosed kIoError.
  static Result<QuantizedSymmetricDense> Deserialize(BinaryReader& reader);

  bool operator==(const QuantizedSymmetricDense& other) const = default;

 private:
  /// Index of canonical entry (i, j), i <= j, in the packed upper
  /// triangle: row i's segment starts at i·n − i(i−1)/2 and holds the
  /// n − i entries j = i .. n−1.
  std::size_t TriIndex(std::size_t i, std::size_t j) const {
    return i * rows() - (i * (i - 1)) / 2 + (j - i);
  }

  RowCodes codes_;  // rows = n, one code per upper-triangle entry
};

/// Quantized symmetric sparse matrix — the boundary-CSR counterpart.
/// In memory the full (mirrored) pattern is held for O(log nnz(row))
/// lookups and O(nnz(row)) row streams; on disk only the strict upper
/// triangle is stored. Entry (u, v) always dequantizes under the
/// parameters of row min(u, v), so At(u, v) == At(v, u) bit for bit.
class QuantizedSymmetricCsr {
 public:
  QuantizedSymmetricCsr() = default;

  /// Quantizes a symmetric CSR. Fails with kInvalidArgument when the
  /// matrix is not square, not exactly symmetric (pattern and values),
  /// or holds non-finite values.
  static Result<QuantizedSymmetricCsr> FromCsr(const CsrMatrix& csr,
                                               QuantizationBits bits);

  std::size_t rows() const { return codes_.rows(); }
  std::size_t cols() const { return rows(); }
  /// Stored entries of the full mirrored pattern (2x the upper count).
  std::size_t nnz() const { return col_idx_.size(); }
  bool empty() const { return rows() == 0; }
  QuantizationBits bits() const { return codes_.bits(); }

  /// Dequantized entry (u, v); 0.0 when the pair is not stored.
  double At(std::size_t u, std::size_t v) const;

  /// Streams the stored entries of row `u` as (column, dequantized
  /// value) without materialising anything n-sized.
  template <typename Fn>
  void ForEachInRow(std::size_t u, Fn&& fn) const {
    for (std::size_t e = row_ptr_[u]; e < row_ptr_[u + 1]; ++e) {
      fn(col_idx_[e], DequantEntry(u, e));
    }
  }

  /// Per-basis-row quantization parameters.
  const std::vector<double>& offsets() const { return codes_.offsets(); }
  const std::vector<double>& scales() const { return codes_.scales(); }

  /// Heap bytes held (full mirrored pattern + row parameters).
  std::size_t EstimatedBytes() const {
    return codes_.HeapBytes() + row_ptr_.size() * sizeof(std::size_t) +
           col_idx_.size() * sizeof(std::uint32_t);
  }

  /// Appends bits + shape + row parameters + the strict upper triangle
  /// to `writer`.
  void Serialize(BinaryWriter& writer) const;

  /// Reads a matrix written by Serialize and mirrors the pattern back.
  /// Truncation, out-of-range or non-ascending columns, lower-triangle
  /// entries, and corrupt scale/offset vectors all fail with an
  /// offset-diagnosed kIoError.
  static Result<QuantizedSymmetricCsr> Deserialize(BinaryReader& reader);

  bool operator==(const QuantizedSymmetricCsr& other) const = default;

 private:
  /// Dequantizes stored entry `e` of row `u` under row min(u, col).
  double DequantEntry(std::size_t u, std::size_t e) const {
    return codes_.Decode(std::min<std::size_t>(u, col_idx_[e]), e);
  }

  std::vector<std::size_t> row_ptr_;    // size rows + 1, full pattern
  std::vector<std::uint32_t> col_idx_;  // full mirrored pattern
  RowCodes codes_;  // rows = n (basis-row params), one code per entry
};

}  // namespace slampred

#endif  // SLAMPRED_LINALG_QUANTIZED_MATRIX_H_
