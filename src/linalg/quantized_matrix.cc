#include "linalg/quantized_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// Row min/max with a finite-ness check; returns false on NaN/inf.
bool RowRange(const double* row, std::size_t n, double& lo, double& hi) {
  lo = row[0];
  hi = row[0];
  for (std::size_t j = 0; j < n; ++j) {
    const double v = row[j];
    if (!std::isfinite(v)) return false;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  return true;
}

// Fails with an offset-diagnosed kIoError unless `count` items of
// `width` bytes fit in what is left of `reader`. It divides rather than
// multiplies, so a crafted count cannot wrap the product past the check.
Status CheckCount(const BinaryReader& reader, std::size_t count,
                  std::size_t width, const char* what) {
  if (count <= reader.remaining() / width) return Status::OK();
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  return reader.Truncated(count <= max / width ? count * width : max, what);
}

Result<QuantizationBits> ReadBits(BinaryReader& reader) {
  auto raw = reader.ReadU8();
  if (!raw.ok()) return raw.status();
  if (raw.value() != 8 && raw.value() != 16) {
    return Status::IoError("unknown quantization width " +
                           std::to_string(raw.value()) +
                           " (expected 8 or 16)");
  }
  return raw.value() == 8 ? QuantizationBits::kU8 : QuantizationBits::kU16;
}

// Little-endian code I/O, overloaded on the code type; u8 arrays move
// as one block.
void WriteCodeArray(BinaryWriter& writer,
                    const std::vector<std::uint8_t>& codes) {
  writer.WriteBytes(codes.data(), codes.size());
}
void WriteCodeArray(BinaryWriter& writer,
                    const std::vector<std::uint16_t>& codes) {
  for (const std::uint16_t code : codes) writer.WriteU16(code);
}
Status ReadCodeArray(BinaryReader& reader, std::vector<std::uint8_t>& codes) {
  return reader.ReadBytes(codes.data(), codes.size());
}
Status ReadCodeArray(BinaryReader& reader,
                     std::vector<std::uint16_t>& codes) {
  for (std::uint16_t& code : codes) {
    SLAMPRED_ASSIGN_OR_RETURN(code, reader.ReadU16());
  }
  return Status::OK();
}
void WriteCodeValue(BinaryWriter& writer, std::uint8_t code) {
  writer.WriteU8(code);
}
void WriteCodeValue(BinaryWriter& writer, std::uint16_t code) {
  writer.WriteU16(code);
}
Result<std::uint8_t> ReadCodeValue(BinaryReader& reader, std::uint8_t) {
  return reader.ReadU8();
}
Result<std::uint16_t> ReadCodeValue(BinaryReader& reader, std::uint16_t) {
  return reader.ReadU16();
}

}  // namespace

const char* QuantizationBitsName(QuantizationBits bits) {
  return bits == QuantizationBits::kU8 ? "u8" : "u16";
}

RowCodes::RowCodes(QuantizationBits bits, std::size_t rows,
                   std::size_t entries)
    : bits_(bits), offsets_(rows, 0.0), scales_(rows, 0.0) {
  Resize(entries);
}

void RowCodes::Resize(std::size_t entries) {
  WithCodes([entries](auto& codes) { codes.resize(entries); });
}

void RowCodes::FitRow(std::size_t r, double lo, double hi) {
  const double levels = static_cast<double>(QuantizationLevels(bits_));
  offsets_[r] = lo;
  scales_[r] = hi > lo ? (hi - lo) / levels : 0.0;
}

void RowCodes::EncodeRun(std::size_t r, std::size_t e, const double* values,
                         std::size_t count) {
  // inv_scale is 0 for a constant row, mapping everything to code 0.
  const double offset = offsets_[r];
  const double inv_scale = scales_[r] > 0.0 ? 1.0 / scales_[r] : 0.0;
  const long long levels = static_cast<long long>(QuantizationLevels(bits_));
  WithCodes([&](auto& codes) {
    using Code = typename std::decay_t<decltype(codes)>::value_type;
    for (std::size_t k = 0; k < count; ++k) {
      const long long code = std::llround((values[k] - offset) * inv_scale);
      codes[e + k] = static_cast<Code>(std::clamp(code, 0LL, levels));
    }
  });
}

void RowCodes::DecodeRun(std::size_t r, std::size_t e, std::size_t count,
                         double* out) const {
  const double offset = offsets_[r];
  const double scale = scales_[r];
  WithCodes([&](const auto& codes) {
    const auto* code = codes.data() + e;
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = offset + scale * static_cast<double>(code[k]);
    }
  });
}

void RowCodes::SetCode(std::size_t e, std::size_t code) {
  WithCodes([&](auto& codes) {
    codes[e] = static_cast<typename std::decay_t<decltype(codes)>::value_type>(
        code);
  });
}

Status RowCodes::CheckParams(const char* context) const {
  for (std::size_t i = 0; i < rows(); ++i) {
    if (!std::isfinite(offsets_[i])) {
      return Status::IoError(std::string(context) +
                             ": non-finite offset in row " +
                             std::to_string(i));
    }
    if (!std::isfinite(scales_[i]) || scales_[i] < 0.0) {
      return Status::IoError(std::string(context) + ": corrupt scale " +
                             std::to_string(scales_[i]) + " in row " +
                             std::to_string(i) +
                             " (must be finite and non-negative)");
    }
  }
  return Status::OK();
}

void RowCodes::WriteParams(BinaryWriter& writer) const {
  for (double x : offsets_) writer.WriteDouble(x);
  for (double x : scales_) writer.WriteDouble(x);
}

void RowCodes::WriteCodes(BinaryWriter& writer) const {
  WithCodes([&](const auto& codes) { WriteCodeArray(writer, codes); });
}

void RowCodes::WriteCode(BinaryWriter& writer, std::size_t e) const {
  WithCodes([&](const auto& codes) { WriteCodeValue(writer, codes[e]); });
}

Result<RowCodes> RowCodes::ReadParams(BinaryReader& reader,
                                      QuantizationBits bits, std::size_t rows,
                                      const char* context) {
  SLAMPRED_RETURN_NOT_OK(CheckCount(reader, rows, 2 * sizeof(double),
                                    "quantized row parameters"));
  RowCodes store(bits, rows, 0);
  for (std::vector<double>* params : {&store.offsets_, &store.scales_}) {
    for (double& x : *params) {
      SLAMPRED_ASSIGN_OR_RETURN(x, reader.ReadDouble());
    }
  }
  SLAMPRED_RETURN_NOT_OK(store.CheckParams(context));
  return store;
}

Status RowCodes::ReadCodes(BinaryReader& reader, std::size_t count) {
  SLAMPRED_RETURN_NOT_OK(
      CheckCount(reader, count, width(), "quantized codes"));
  Resize(count);
  return WithCodes([&](auto& codes) { return ReadCodeArray(reader, codes); });
}

Result<std::size_t> RowCodes::ReadCode(BinaryReader& reader) const {
  return WithCodes([&](const auto& codes) -> Result<std::size_t> {
    using Code = typename std::decay_t<decltype(codes)>::value_type;
    SLAMPRED_ASSIGN_OR_RETURN(const Code code, ReadCodeValue(reader, Code{}));
    return static_cast<std::size_t>(code);
  });
}

Result<QuantizedMatrix> QuantizedMatrix::FromMatrix(const Matrix& m,
                                                    QuantizationBits bits) {
  QuantizedMatrix q;
  q.cols_ = m.cols();
  q.codes_ = RowCodes(bits, m.rows(), m.rows() * m.cols());
  if (q.empty()) return q;

  std::vector<std::uint8_t> bad_row(m.rows(), 0);
  // One writer per row: codes are a pure function of the row contents,
  // so the result is bit-identical for any thread count.
  ParallelFor(0, m.rows(), GrainForWork(q.cols_),
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  const double* row = m.data().data() + i * q.cols_;
                  double lo, hi;
                  if (!RowRange(row, q.cols_, lo, hi)) {
                    bad_row[i] = 1;
                    continue;
                  }
                  q.codes_.FitRow(i, lo, hi);
                  q.codes_.EncodeRun(i, i * q.cols_, row, q.cols_);
                }
              });
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (bad_row[i]) {
      return Status::InvalidArgument(
          "cannot quantize row " + std::to_string(i) +
          ": contains NaN or infinite score");
    }
  }
  return q;
}

void QuantizedMatrix::RowScores(std::size_t i,
                                std::vector<double>& out) const {
  out.resize(cols_);
  codes_.DecodeRun(i, i * cols_, cols_, out.data());
}

Matrix QuantizedMatrix::ToDense() const {
  Matrix m(rows(), cols_);
  for (std::size_t i = 0; i < rows(); ++i) {
    codes_.DecodeRun(i, i * cols_, cols_, m.data().data() + i * cols_);
  }
  return m;
}

Status QuantizedMatrix::Validate() const {
  SLAMPRED_RETURN_NOT_OK(codes_.CheckParams("quantized matrix"));
  if (codes_.entries() != rows() * cols_) {
    return Status::IoError("quantized matrix code storage sized " +
                           std::to_string(codes_.entries()) + " for " +
                           std::to_string(rows() * cols_) + " entries");
  }
  return Status::OK();
}

void QuantizedMatrix::Serialize(BinaryWriter& writer) const {
  writer.WriteU8(static_cast<std::uint8_t>(bits()));
  writer.WriteU64(rows());
  writer.WriteU64(cols_);
  codes_.WriteParams(writer);
  codes_.WriteCodes(writer);
}

Result<QuantizedMatrix> QuantizedMatrix::Deserialize(BinaryReader& reader) {
  SLAMPRED_ASSIGN_OR_RETURN(const QuantizationBits bits, ReadBits(reader));
  SLAMPRED_ASSIGN_OR_RETURN(const std::size_t rows, reader.ReadU64());
  QuantizedMatrix q;
  SLAMPRED_ASSIGN_OR_RETURN(q.cols_, reader.ReadU64());
  SLAMPRED_ASSIGN_OR_RETURN(
      q.codes_,
      RowCodes::ReadParams(reader, bits, rows, "quantized matrix"));
  // rows <= remaining / 16 now; bounding cols by division keeps the
  // rows·cols code count from wrapping.
  if (rows != 0) {
    SLAMPRED_RETURN_NOT_OK(CheckCount(reader, q.cols_, rows * q.codes_.width(),
                                      "quantized code block"));
  }
  SLAMPRED_RETURN_NOT_OK(q.codes_.ReadCodes(reader, rows * q.cols_));
  return q;
}

Result<QuantizedSymmetricDense> QuantizedSymmetricDense::FromMatrix(
    const Matrix& m, QuantizationBits bits) {
  if (m.rows() != m.cols()) {
    return Status::InvalidArgument(
        "symmetric block quantization requires a square matrix, got " +
        std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
  }
  const std::size_t n = m.rows();
  QuantizedSymmetricDense q;
  q.codes_ = RowCodes(bits, n, n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = m.data().data() + i * n;
    // Canonical segment j in [i, n): the parameters of row i only ever
    // dequantize canonical entries, so the range covers exactly those.
    double lo, hi;
    if (!RowRange(row + i, n - i, lo, hi)) {
      return Status::InvalidArgument("cannot quantize block row " +
                                     std::to_string(i) +
                                     ": contains NaN or infinite score");
    }
    for (std::size_t j = i; j < n; ++j) {
      const double a = row[j];
      const double b = m(j, i);
      if (!std::isfinite(b)) {
        return Status::InvalidArgument("cannot quantize block row " +
                                       std::to_string(j) +
                                       ": contains NaN or infinite score");
      }
      if (std::abs(a - b) > 1e-9 * (std::abs(a) + std::abs(b) + 1.0)) {
        return Status::InvalidArgument(
            "block is not symmetric at (" + std::to_string(i) + ", " +
            std::to_string(j) + "): " + std::to_string(a) + " vs " +
            std::to_string(b) +
            " — symmetric quantization would rewrite scores");
      }
    }
    q.codes_.FitRow(i, lo, hi);
    q.codes_.EncodeRun(i, q.TriIndex(i, i), row + i, n - i);
  }
  return q;
}

void QuantizedSymmetricDense::RowScores(std::size_t i,
                                        std::vector<double>& out) const {
  // Left of the diagonal each entry sits in another row's segment;
  // from the diagonal on, row i's own segment is one contiguous run.
  out.resize(rows());
  for (std::size_t j = 0; j < i; ++j) out[j] = codes_.Decode(j, TriIndex(j, i));
  codes_.DecodeRun(i, TriIndex(i, i), rows() - i, out.data() + i);
}

void QuantizedSymmetricDense::Serialize(BinaryWriter& writer) const {
  writer.WriteU8(static_cast<std::uint8_t>(bits()));
  writer.WriteU64(rows());
  codes_.WriteParams(writer);
  codes_.WriteCodes(writer);
}

Result<QuantizedSymmetricDense> QuantizedSymmetricDense::Deserialize(
    BinaryReader& reader) {
  SLAMPRED_ASSIGN_OR_RETURN(const QuantizationBits bits, ReadBits(reader));
  SLAMPRED_ASSIGN_OR_RETURN(const std::size_t n, reader.ReadU64());
  QuantizedSymmetricDense q;
  SLAMPRED_ASSIGN_OR_RETURN(
      q.codes_, RowCodes::ReadParams(reader, bits, n, "quantized block"));
  // n <= remaining / 16 now, so n + 1 cannot wrap, and bounding
  // ⌊(n+1)/2⌋·n by division keeps the n(n+1)/2 code count from
  // wrapping (the codes check below is the exact bound).
  if (n != 0) {
    SLAMPRED_RETURN_NOT_OK(CheckCount(reader, (n + 1) / 2,
                                      n * q.codes_.width(),
                                      "quantized block codes"));
  }
  const std::size_t tri = n % 2 == 0 ? n / 2 * (n + 1) : (n + 1) / 2 * n;
  SLAMPRED_RETURN_NOT_OK(q.codes_.ReadCodes(reader, tri));
  return q;
}

Result<QuantizedSymmetricCsr> QuantizedSymmetricCsr::FromCsr(
    const CsrMatrix& csr, QuantizationBits bits) {
  if (csr.rows() != csr.cols()) {
    return Status::InvalidArgument(
        "symmetric quantization requires a square matrix, got " +
        std::to_string(csr.rows()) + "x" + std::to_string(csr.cols()));
  }
  const std::size_t n = csr.rows();
  QuantizedSymmetricCsr q;
  q.codes_ = RowCodes(bits, n, 0);
  q.row_ptr_.assign(n + 1, 0);
  if (n == 0) return q;

  // Pass 1: per-row min/max over the FULL stored pattern plus the
  // implicit zeros (any row shorter than n has absent entries, which
  // must dequantize to a value the code range can represent — include
  // 0 in the range so the codes of stored entries stay faithful even
  // though absent entries are returned as exact 0.0 without decoding).
  for (std::size_t u = 0; u < n; ++u) {
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (std::size_t e = csr.row_ptr()[u]; e < csr.row_ptr()[u + 1]; ++e) {
      const double v = csr.values()[e];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "cannot quantize boundary row " + std::to_string(u) +
            ": contains NaN or infinite score");
      }
      if (!any) {
        lo = v;
        hi = v;
        any = true;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (csr.row_ptr()[u + 1] - csr.row_ptr()[u] < n) {
      lo = std::min(lo, 0.0);
      hi = std::max(hi, 0.0);
    }
    q.codes_.FitRow(u, lo, hi);
  }

  // Pass 2: verify exact symmetry and quantize every stored entry
  // under the min-endpoint row parameters. Both (u,v) and (v,u) get
  // the same code by construction, so the mirrored pattern is filled
  // directly.
  const std::size_t nnz = csr.nnz();
  q.col_idx_.resize(nnz);
  q.codes_.Resize(nnz);
  for (std::size_t u = 0; u <= n; ++u) q.row_ptr_[u] = csr.row_ptr()[u];
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t e = csr.row_ptr()[u]; e < csr.row_ptr()[u + 1]; ++e) {
      const std::size_t v = csr.col_idx()[e];
      if (v >= n) {
        return Status::InvalidArgument("boundary column " + std::to_string(v) +
                                       " out of range for " +
                                       std::to_string(n) + " rows");
      }
      const double value = csr.values()[e];
      if (u < v) {
        // Verify the mirror entry exists with the exact same bits.
        const double mirror = csr.At(v, u);
        if (std::memcmp(&mirror, &value, sizeof(double)) != 0) {
          return Status::InvalidArgument(
              "boundary matrix is not exactly symmetric at (" +
              std::to_string(u) + ", " + std::to_string(v) + ")");
        }
      }
      q.col_idx_[e] = static_cast<std::uint32_t>(v);
      q.codes_.Encode(std::min(u, v), e, value);
    }
  }
  return q;
}

double QuantizedSymmetricCsr::At(std::size_t u, std::size_t v) const {
  const std::size_t begin = row_ptr_[u];
  const std::size_t end = row_ptr_[u + 1];
  const auto* first = col_idx_.data() + begin;
  const auto* last = col_idx_.data() + end;
  const auto* it =
      std::lower_bound(first, last, static_cast<std::uint32_t>(v));
  if (it == last || *it != v) return 0.0;
  return DequantEntry(u, begin + static_cast<std::size_t>(it - first));
}

void QuantizedSymmetricCsr::Serialize(BinaryWriter& writer) const {
  writer.WriteU8(static_cast<std::uint8_t>(bits()));
  writer.WriteU64(rows());
  // Strict upper triangle only — the reader mirrors the pattern back.
  std::uint64_t upper = 0;
  for (std::size_t u = 0; u < rows(); ++u) {
    for (std::size_t e = row_ptr_[u]; e < row_ptr_[u + 1]; ++e) {
      if (col_idx_[e] > u) ++upper;
    }
  }
  writer.WriteU64(upper);
  codes_.WriteParams(writer);
  for (std::size_t u = 0; u < rows(); ++u) {
    std::uint32_t count = 0;
    for (std::size_t e = row_ptr_[u]; e < row_ptr_[u + 1]; ++e) {
      if (col_idx_[e] > u) ++count;
    }
    writer.WriteU32(count);
  }
  for (std::size_t u = 0; u < rows(); ++u) {
    for (std::size_t e = row_ptr_[u]; e < row_ptr_[u + 1]; ++e) {
      if (col_idx_[e] <= u) continue;
      writer.WriteU32(col_idx_[e]);
      codes_.WriteCode(writer, e);
    }
  }
}

Result<QuantizedSymmetricCsr> QuantizedSymmetricCsr::Deserialize(
    BinaryReader& reader) {
  SLAMPRED_ASSIGN_OR_RETURN(const QuantizationBits bits, ReadBits(reader));
  SLAMPRED_ASSIGN_OR_RETURN(const std::size_t n, reader.ReadU64());
  SLAMPRED_ASSIGN_OR_RETURN(const std::size_t upper_nnz, reader.ReadU64());
  QuantizedSymmetricCsr q;
  SLAMPRED_ASSIGN_OR_RETURN(
      q.codes_, RowCodes::ReadParams(reader, bits, n, "quantized boundary"));

  std::vector<std::uint32_t> upper_counts(n);
  std::size_t total = 0;
  for (std::uint32_t& count : upper_counts) {
    SLAMPRED_ASSIGN_OR_RETURN(count, reader.ReadU32());
    total += count;
  }
  if (total != upper_nnz) {
    return Status::IoError("quantized boundary row counts sum to " +
                           std::to_string(total) + ", header says " +
                           std::to_string(upper_nnz));
  }
  SLAMPRED_RETURN_NOT_OK(CheckCount(reader, upper_nnz,
                                    sizeof(std::uint32_t) + q.codes_.width(),
                                    "quantized boundary entries"));

  // Read the upper triangle, validating strict ordering, then mirror.
  struct UpperEntry {
    std::uint32_t row;
    std::uint32_t col;
    std::size_t code;
  };
  std::vector<UpperEntry> entries;
  entries.reserve(upper_nnz);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t k = 0; k < upper_counts[u]; ++k) {
      SLAMPRED_ASSIGN_OR_RETURN(const std::uint32_t v, reader.ReadU32());
      if (v <= u || v >= n) {
        return Status::IoError("quantized boundary entry (" +
                               std::to_string(u) + ", " + std::to_string(v) +
                               ") outside the strict upper triangle of " +
                               std::to_string(n) + " rows");
      }
      if (k != 0 && v <= entries.back().col) {
        return Status::IoError("quantized boundary columns not strictly "
                               "ascending in row " +
                               std::to_string(u));
      }
      SLAMPRED_ASSIGN_OR_RETURN(const std::size_t code,
                                q.codes_.ReadCode(reader));
      entries.push_back({static_cast<std::uint32_t>(u), v, code});
    }
  }

  // Mirror: count both directions, prefix-sum, then place each row's
  // mirrored entries (columns below the row, arriving by ascending
  // source row) before its upper ones (columns above, ascending on
  // disk), so every row comes out ascending.
  q.row_ptr_.assign(n + 1, 0);
  for (const auto& e : entries) {
    ++q.row_ptr_[e.row + 1];
    ++q.row_ptr_[e.col + 1];
  }
  for (std::size_t u = 0; u < n; ++u) q.row_ptr_[u + 1] += q.row_ptr_[u];
  q.col_idx_.resize(2 * entries.size());
  q.codes_.Resize(2 * entries.size());
  std::vector<std::size_t> cursor(q.row_ptr_.begin(), q.row_ptr_.end() - 1);
  auto place = [&](std::uint32_t row, std::uint32_t col, std::size_t code) {
    const std::size_t slot = cursor[row]++;
    q.col_idx_[slot] = col;
    q.codes_.SetCode(slot, code);
  };
  for (const auto& e : entries) place(e.col, e.row, e.code);
  for (const auto& e : entries) place(e.row, e.col, e.code);
  return q;
}

}  // namespace slampred
