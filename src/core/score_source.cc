#include "core/score_source.h"

#include <algorithm>
#include <type_traits>

namespace slampred {
namespace {

// Per-form entry, row, byte and name accessors behind MatrixScores.

double Entry(const Matrix& m, std::size_t u, std::size_t v) { return m(u, v); }

template <typename M>
double Entry(const M& m, std::size_t u, std::size_t v) {
  return m.At(u, v);
}

void Row(const Matrix& m, std::size_t u, std::vector<double>& out) {
  const double* row = m.data().data() + u * m.cols();
  out.assign(row, row + m.cols());
}

void Row(const FactoredMatrix& m, std::size_t u, std::vector<double>& out) {
  out.resize(m.cols());
  for (std::size_t v = 0; v < m.cols(); ++v) out[v] = m.At(u, v);
}

void Row(const QuantizedMatrix& m, std::size_t u, std::vector<double>& out) {
  m.RowScores(u, out);
}

void Row(const QuantizedSymmetricDense& m, std::size_t u,
         std::vector<double>& out) {
  m.RowScores(u, out);
}

void Row(const CsrMatrix& m, std::size_t u, std::vector<double>& out) {
  out.assign(m.cols(), 0.0);
  for (std::size_t e = m.row_ptr()[u]; e < m.row_ptr()[u + 1]; ++e) {
    out[m.col_idx()[e]] = m.values()[e];
  }
}

void Row(const QuantizedSymmetricCsr& m, std::size_t u,
         std::vector<double>& out) {
  out.assign(m.cols(), 0.0);
  m.ForEachInRow(u, [&out](std::uint32_t v, double value) { out[v] = value; });
}

std::size_t Bytes(const Matrix& m) { return m.data().size() * sizeof(double); }

template <typename M>
std::size_t Bytes(const M& m) {
  return m.EstimatedBytes();
}

std::string Form(const Matrix&) { return "dense"; }

std::string Form(const FactoredMatrix& m) {
  return "factored, rank " + std::to_string(m.rank());
}

std::string Form(const QuantizedMatrix& m) {
  return std::string("quantized ") + QuantizationBitsName(m.bits());
}

std::string Form(const QuantizedSymmetricDense& m) {
  return std::string("quantized ") + QuantizationBitsName(m.bits()) +
         " block";
}

std::string Form(const CsrMatrix& m) {
  return "sparse, " + std::to_string(m.nnz()) + " entries";
}

std::string Form(const QuantizedSymmetricCsr& m) {
  return std::string("quantized ") + QuantizationBitsName(m.bits()) +
         " sparse, " + std::to_string(m.nnz()) + " entries";
}

}  // namespace

TopKRowOrder ScoreSource::RowOrder(std::size_t u) const {
  std::vector<double> row;
  RowInto(u, row);
  const std::size_t n = row.size();
  TopKRowOrder order;
  order.reserve(n == 0 ? 0 : n - 1);
  for (std::size_t v = 0; v < n; ++v) {
    if (v != u) order.push_back(static_cast<std::uint32_t>(v));
  }
  std::sort(order.begin(), order.end(),
            [&row](std::uint32_t a, std::uint32_t b) {
              if (row[a] != row[b]) return row[a] > row[b];
              return a < b;  // Deterministic tie-break.
            });
  return order;
}

Result<std::shared_ptr<const ScoreSource>> ScoreSource::Quantize(
    QuantizationBits bits) const {
  auto quantized = QuantizedMatrix::FromMatrix(DenseScoreMatrix(*this), bits);
  if (!quantized.ok()) return quantized.status();
  return std::shared_ptr<const ScoreSource>(
      std::make_shared<QuantizedScores>(std::move(quantized).value()));
}

template <typename M>
double MatrixScores<M>::At(std::size_t u, std::size_t v) const {
  return Entry(matrix_, u, v);
}

template <typename M>
void MatrixScores<M>::RowInto(std::size_t u, std::vector<double>& out) const {
  Row(matrix_, u, out);
}

template <typename M>
std::size_t MatrixScores<M>::EstimatedBytes() const {
  return Bytes(matrix_);
}

template <typename M>
bool MatrixScores<M>::quantized() const {
  return std::is_same_v<M, QuantizedMatrix> ||
         std::is_same_v<M, QuantizedSymmetricDense> ||
         std::is_same_v<M, QuantizedSymmetricCsr>;
}

template <typename M>
std::string MatrixScores<M>::Describe() const {
  return Form(matrix_);
}

template <typename M>
Result<std::shared_ptr<const ScoreSource>> MatrixScores<M>::Quantize(
    QuantizationBits bits) const {
  if constexpr (std::is_same_v<M, CsrMatrix>) {
    // A boundary stays sparse: only its stored entries get codes.
    auto quantized = QuantizedSymmetricCsr::FromCsr(matrix_, bits);
    if (!quantized.ok()) return quantized.status();
    return std::shared_ptr<const ScoreSource>(
        std::make_shared<QuantizedBoundaryScores>(
            std::move(quantized).value()));
  } else {
    return ScoreSource::Quantize(bits);
  }
}

template class MatrixScores<Matrix>;
template class MatrixScores<FactoredMatrix>;
template class MatrixScores<QuantizedMatrix>;
template class MatrixScores<QuantizedSymmetricDense>;
template class MatrixScores<CsrMatrix>;
template class MatrixScores<QuantizedSymmetricCsr>;

Matrix DenseScoreMatrix(const ScoreSource& scores) {
  const std::size_t n = scores.num_users();
  Matrix dense(n, n);
  std::vector<double> row;
  for (std::size_t u = 0; u < n; ++u) {
    scores.RowInto(u, row);
    std::copy(row.begin(), row.end(),
              dense.data().begin() + static_cast<std::ptrdiff_t>(u * n));
  }
  return dense;
}

Status CheckPairsInRange(const std::vector<UserPair>& pairs,
                         std::size_t num_users, const char* matrix) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].u >= num_users || pairs[i].v >= num_users) {
      return Status::OutOfRange(
          "pair " + std::to_string(i) + " = (" + std::to_string(pairs[i].u) +
          ", " + std::to_string(pairs[i].v) + ") outside the " + matrix +
          " score matrix (" + std::to_string(num_users) + " users)");
    }
  }
  return Status::OK();
}

}  // namespace slampred
