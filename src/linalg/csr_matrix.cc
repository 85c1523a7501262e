#include "linalg/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/binary_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

CsrMatrix CsrMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    SLAMPRED_CHECK(t.row < rows && t.col < cols)
        << "triplet (" << t.row << "," << t.col << ") outside " << rows << "x"
        << cols;
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);

  // Merge duplicates, drop zeros.
  std::vector<Triplet> merged;
  merged.reserve(triplets.size());
  for (const Triplet& t : triplets) {
    if (!merged.empty() && merged.back().row == t.row &&
        merged.back().col == t.col) {
      merged.back().value += t.value;
    } else {
      merged.push_back(t);
    }
  }

  for (const Triplet& t : merged) {
    if (t.value == 0.0) continue;
    m.col_idx_.push_back(t.col);
    m.values_.push_back(t.value);
    ++m.row_ptr_[t.row + 1];
  }
  for (std::size_t i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense, double drop_tol) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::fabs(v) > drop_tol) trips.push_back({i, j, v});
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(trips));
}

CsrMatrix CsrMatrix::FromSortedLists(
    std::size_t rows, std::size_t cols,
    const std::vector<std::vector<std::size_t>>& lists) {
  SLAMPRED_CHECK(lists.size() <= rows)
      << lists.size() << " lists for " << rows << " rows";
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (i < lists.size()) nnz += lists[i].size();
    m.row_ptr_[i + 1] = nnz;
  }
  m.col_idx_.reserve(nnz);
  m.values_.assign(nnz, 1.0);
  for (const std::vector<std::size_t>& list : lists) {
    for (std::size_t j : list) {
      SLAMPRED_CHECK(j < cols) << "list index " << j << " outside " << cols
                               << " cols";
      m.col_idx_.push_back(j);
    }
  }
  return m;
}

namespace {

// Appends the first `size` entries held in `blocks` of `block_entries`
// each to `out`, releasing every block once it is copied.
template <typename T>
void AppendBlocks(std::vector<std::unique_ptr<T[]>>& blocks, std::size_t size,
                  std::size_t block_entries, std::vector<T>& out) {
  for (std::unique_ptr<T[]>& block : blocks) {
    const std::size_t count = std::min(size, block_entries);
    out.insert(out.end(), block.get(), block.get() + count);
    block.reset();
    size -= count;
  }
}

}  // namespace

CsrMatrix CsrMatrix::FromRowFill(
    std::size_t rows, std::size_t cols, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, CsrRowWriter&)>&
        fill) {
  if (grain == 0) grain = 1;  // As ParallelFor does.
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  std::vector<CsrRowWriter> chunks((rows + grain - 1) / grain);
  ParallelFor(0, rows, grain, [&](std::size_t row0, std::size_t row1) {
    CsrRowWriter& out = chunks[row0 / grain];
    out.rows_ = row1 - row0;
    out.cols_ = cols;
    out.row_nnz_ = m.row_ptr_.data() + row0 + 1;
    fill(row0, row1, out);
    SLAMPRED_CHECK(out.rows_written_ == out.rows_)
        << "chunk [" << row0 << ", " << row1 << ") ended "
        << out.rows_written_ << " rows";
  });
  for (std::size_t i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];

  // One array at a time, each block released once copied.
  constexpr std::size_t kBlock = CsrRowWriter::kBlockEntries;
  m.col_idx_.reserve(m.row_ptr_.back());
  for (CsrRowWriter& chunk : chunks) {
    AppendBlocks(chunk.col_blocks_, chunk.size_, kBlock, m.col_idx_);
  }
  m.values_.reserve(m.row_ptr_.back());
  for (CsrRowWriter& chunk : chunks) {
    AppendBlocks(chunk.value_blocks_, chunk.size_, kBlock, m.values_);
  }
  return m;
}

void SparseAccumulator::Sort() { std::sort(touched_.begin(), touched_.end()); }

void SparseAccumulator::Scale(double factor) {
  for (std::size_t col : touched_) values_[col] = factor * values_[col];
}

void SparseAccumulator::Clear() {
  for (std::size_t col : touched_) {
    values_[col] = 0.0;
    seen_[col] = 0;
  }
  touched_.clear();
}

double CsrMatrix::At(std::size_t i, std::size_t j) const {
  SLAMPRED_CHECK(i < rows_ && j < cols_) << "CSR index out of range";
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Matrix CsrMatrix::MultiplyDense(const Matrix& b) const {
  SLAMPRED_CHECK(b.rows() == cols_) << "CSR * dense shape mismatch";
  const std::size_t ncols = b.cols();
  const double* b_data = b.data().data();
  Matrix out(rows_, ncols);
  // One writing chunk per output row; the stored k stream ascending per
  // row, so the accumulation order per element is partition-independent.
  // Four output columns are summed at a time in registers, one pass over
  // the row each, rather than stored back after every term.
  const std::size_t avg_row_work =
      rows_ == 0 ? 1 : (nnz() * ncols) / rows_ + 1;
  ParallelFor(0, rows_, GrainForWork(avg_row_work),
              [&](std::size_t row0, std::size_t row1) {
    for (std::size_t i = row0; i < row1; ++i) {
      double* out_row = out.data().data() + i * ncols;
      const std::size_t begin = row_ptr_[i];
      const std::size_t end = row_ptr_[i + 1];
      std::size_t j = 0;
      for (; j + 4 <= ncols; j += 4) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t p = begin; p < end; ++p) {
          const double v = values_[p];
          const double* b_row = b_data + col_idx_[p] * ncols + j;
          s0 += v * b_row[0];
          s1 += v * b_row[1];
          s2 += v * b_row[2];
          s3 += v * b_row[3];
        }
        out_row[j] = s0;
        out_row[j + 1] = s1;
        out_row[j + 2] = s2;
        out_row[j + 3] = s3;
      }
      for (; j < ncols; ++j) {
        double s = 0.0;
        for (std::size_t p = begin; p < end; ++p) {
          s += values_[p] * b_data[col_idx_[p] * ncols + j];
        }
        out_row[j] = s;
      }
    }
  });
  return out;
}

Vector CsrMatrix::RowSums() const {
  Vector sums(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      sum += values_[p];
    }
    sums[i] = sum;
  }
  return sums;
}

std::size_t CsrMatrix::RowIntersectionCount(std::size_t u,
                                            std::size_t v) const {
  std::size_t p = row_ptr_[u];
  const std::size_t pe = row_ptr_[u + 1];
  std::size_t q = row_ptr_[v];
  const std::size_t qe = row_ptr_[v + 1];
  std::size_t count = 0;
  while (p < pe && q < qe) {
    if (col_idx_[p] < col_idx_[q]) {
      ++p;
    } else if (col_idx_[q] < col_idx_[p]) {
      ++q;
    } else {
      ++count;
      ++p;
      ++q;
    }
  }
  return count;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out(i, col_idx_[p]) = values_[p];
    }
  }
  return out;
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<Triplet> trips;
  trips.reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      trips.push_back({col_idx_[p], i, values_[p]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(trips));
}

CsrMatrix CsrMatrix::AddScaled(const CsrMatrix& other, double factor) const {
  SLAMPRED_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "CSR AddScaled shape mismatch";
  // One sorted merge per row, written straight into the result's arrays
  // (sized for the disjoint case, so they never grow).
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_.assign(rows_ + 1, 0);
  out.col_idx_.reserve(nnz() + other.nnz());
  out.values_.reserve(nnz() + other.nnz());
  auto emit = [&out](std::size_t col, double value) {
    if (value == 0.0) return;
    out.col_idx_.push_back(col);
    out.values_.push_back(value);
  };
  for (std::size_t i = 0; i < rows_; ++i) {
    std::size_t p = row_ptr_[i];
    std::size_t q = other.row_ptr_[i];
    const std::size_t p_end = row_ptr_[i + 1];
    const std::size_t q_end = other.row_ptr_[i + 1];
    while (p < p_end || q < q_end) {
      if (q >= q_end || (p < p_end && col_idx_[p] < other.col_idx_[q])) {
        emit(col_idx_[p], values_[p]);
        ++p;
      } else if (p >= p_end || other.col_idx_[q] < col_idx_[p]) {
        emit(other.col_idx_[q], factor * other.values_[q]);
        ++q;
      } else {
        emit(col_idx_[p], values_[p] + factor * other.values_[q]);
        ++p;
        ++q;
      }
    }
    out.row_ptr_[i + 1] = out.values_.size();
  }
  return out;
}

double CsrMatrix::MaxAbs() const {
  double best = 0.0;
  for (double v : values_) best = std::max(best, std::fabs(v));
  return best;
}

std::size_t CsrMatrix::EstimatedBytes() const {
  return row_ptr_.size() * sizeof(std::size_t) +
         col_idx_.size() * sizeof(std::size_t) +
         values_.size() * sizeof(double);
}

void CsrMatrix::Serialize(BinaryWriter& writer) const {
  writer.WriteU64(rows_);
  writer.WriteU64(cols_);
  writer.WriteU64(values_.size());
  for (std::size_t p : row_ptr_) writer.WriteU64(p);
  for (std::size_t c : col_idx_) writer.WriteU64(c);
  for (double v : values_) writer.WriteDouble(v);
}

Result<CsrMatrix> CsrMatrix::Deserialize(BinaryReader& reader) {
  const std::size_t header_offset = reader.offset();
  auto rows = reader.ReadU64();
  if (!rows.ok()) return rows.status();
  auto cols = reader.ReadU64();
  if (!cols.ok()) return cols.status();
  auto nnz = reader.ReadU64();
  if (!nnz.ok()) return nnz.status();
  // rows + 1 row pointers, then nnz column indices and nnz values, all
  // 8 bytes wide: bounded by division, as a sum of the counts can wrap.
  const std::uint64_t words = reader.remaining() / sizeof(std::uint64_t);
  if (rows.value() >= words || nnz.value() > (words - rows.value() - 1) / 2) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const bool exact = rows.value() < kMax / 32 && nnz.value() < kMax / 32;
    return reader.Truncated(
        exact ? 8 * (rows.value() + 1) + 16 * nnz.value() : kMax,
        "csr payload");
  }
  auto corrupt = [&](const std::string& what) {
    return Status::IoError("corrupt csr matrix (" + what + ") in record at "
                           "offset " + std::to_string(header_offset));
  };

  CsrMatrix m;
  m.rows_ = static_cast<std::size_t>(rows.value());
  m.cols_ = static_cast<std::size_t>(cols.value());
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (std::size_t& p : m.row_ptr_) {
    auto value = reader.ReadU64();
    if (!value.ok()) return value.status();
    p = static_cast<std::size_t>(value.value());
  }
  if (m.row_ptr_.front() != 0 ||
      m.row_ptr_.back() != static_cast<std::size_t>(nnz.value())) {
    return corrupt("row_ptr endpoints");
  }
  for (std::size_t i = 0; i < m.rows_; ++i) {
    if (m.row_ptr_[i] > m.row_ptr_[i + 1]) return corrupt("row_ptr order");
  }
  m.col_idx_.assign(static_cast<std::size_t>(nnz.value()), 0);
  for (std::size_t& c : m.col_idx_) {
    auto value = reader.ReadU64();
    if (!value.ok()) return value.status();
    if (value.value() >= cols.value()) return corrupt("column index range");
    c = static_cast<std::size_t>(value.value());
  }
  for (std::size_t i = 0; i < m.rows_; ++i) {
    for (std::size_t p = m.row_ptr_[i] + 1; p < m.row_ptr_[i + 1]; ++p) {
      if (m.col_idx_[p - 1] >= m.col_idx_[p]) return corrupt("column order");
    }
  }
  m.values_.assign(static_cast<std::size_t>(nnz.value()), 0.0);
  for (double& v : m.values_) {
    auto value = reader.ReadDouble();
    if (!value.ok()) return value.status();
    v = value.value();
  }
  return m;
}

}  // namespace slampred
