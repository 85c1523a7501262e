#include "embedding/laplacian.h"

#include <vector>

#include "util/logging.h"

namespace slampred {

namespace {

// first_row[i] = the row of Z where instance i's block starts: instance
// i of network k (by the sample's offsets) holds its d_k features at
// rows [first_row[i], first_row[i] + d_k) of column i.
std::vector<std::size_t> BlockFirstRows(const InstanceSample& sample) {
  SLAMPRED_CHECK(sample.network_offsets.size() == sample.num_networks() + 1 &&
                 sample.network_offsets.back() == sample.total())
      << "network offsets do not cover the sample";
  std::vector<std::size_t> first_row(sample.total());
  std::size_t row = 0;
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    for (std::size_t i = sample.network_offsets[k];
         i < sample.network_offsets[k + 1]; ++i) {
      SLAMPRED_CHECK(sample.instances[i].features.size() ==
                     sample.feature_dims[k])
          << "instance feature length mismatch in network " << k;
      first_row[i] = row;
    }
    row += sample.feature_dims[k];
  }
  return first_row;
}

// The one sandwich kernel: `for_each_in_row(i, visit)` calls
// visit(j, w_ij) for row i of W in ascending j. Entry (a, b) of the
// result takes its updates in the order of the dense-Z reference — the
// degree terms (z(a,i)·d_i)·z(b,i) for ascending i, then the terms
// (z(a,i)·w_ij)·z(b,j) for ascending (i, j), each skipped when its
// first factor is zero — so the result is bit-identical to it. Only
// instance i's own block is read, contiguously: an off-block z(a, i) is
// an exact +0.0, whose terms the reference skips, and an off-block
// z(b, j) makes a term ±0.0, which leaves a (finite) accumulator
// unchanged — one that starts at +0.0 never becomes −0.0.
template <typename ForEachInRow>
Matrix Sandwich(const InstanceSample& sample,
                const ForEachInRow& for_each_in_row) {
  std::size_t d = 0;
  for (std::size_t dk : sample.feature_dims) d += dk;
  const std::vector<std::size_t> first_row = BlockFirstRows(sample);
  Matrix out(d, d);
  double* const o = out.data().data();

  // Z D Zᵀ part.
  for (std::size_t i = 0; i < sample.total(); ++i) {
    double degree = 0.0;
    for_each_in_row(i, [&](std::size_t, double w) { degree += w; });
    if (degree == 0.0) continue;
    const std::vector<double>& zi = sample.instances[i].features.data();
    double* const block = o + first_row[i] * d + first_row[i];
    for (std::size_t a = 0; a < zi.size(); ++a) {
      const double za = zi[a] * degree;
      if (za == 0.0) continue;
      for (std::size_t b = 0; b < zi.size(); ++b) {
        block[a * d + b] += za * zi[b];
      }
    }
  }

  // −Z W Zᵀ part.
  for (std::size_t i = 0; i < sample.total(); ++i) {
    const std::vector<double>& zi = sample.instances[i].features.data();
    double* const rows = o + first_row[i] * d;
    for_each_in_row(i, [&](std::size_t j, double w) {
      if (w == 0.0) return;
      const std::vector<double>& zj = sample.instances[j].features.data();
      double* const block = rows + first_row[j];
      for (std::size_t a = 0; a < zi.size(); ++a) {
        const double za = zi[a] * w;
        if (za == 0.0) continue;
        for (std::size_t b = 0; b < zj.size(); ++b) {
          block[a * d + b] -= za * zj[b];
        }
      }
    });
  }
  return out;
}

}  // namespace

Matrix SandwichLaplacian(const InstanceSample& sample, const CsrMatrix& w) {
  SLAMPRED_CHECK(w.rows() == sample.total() && w.cols() == sample.total())
      << "W is not square over the sample's instances";
  const auto& row_ptr = w.row_ptr();
  const auto& col_idx = w.col_idx();
  const auto& values = w.values();
  return Sandwich(sample, [&](std::size_t i, const auto& visit) {
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      visit(col_idx[p], values[p]);
    }
  });
}

Matrix SandwichLaplacian(const InstanceSample& sample, LabelIndicator w) {
  // classes[y] = the instances labelled y, ascending.
  std::vector<std::size_t> classes[2];
  for (std::size_t i = 0; i < sample.total(); ++i) {
    classes[sample.instances[i].exists].push_back(i);
  }
  const bool similar = w == LabelIndicator::kSimilar;
  return Sandwich(sample, [&](std::size_t i, const auto& visit) {
    const bool label = sample.instances[i].exists;
    for (std::size_t j : classes[similar ? label : !label]) {
      if (j != i) visit(j, 1.0);
    }
  });
}

}  // namespace slampred
