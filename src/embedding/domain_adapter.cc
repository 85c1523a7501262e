#include "embedding/domain_adapter.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "embedding/indicator_matrices.h"
#include "linalg/tensor3.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

namespace {

// Per-network feature standardisation fitted on the sampled instances.
// Scatter-based projections (Theorem 1 minimises sums of squared
// distances) are scale-sensitive; standardising the inputs and absorbing
// the transform into the effective projection leaves the theory intact
// while making the eigen directions comparable to an LDA direction.
struct FeatureScaler {
  Vector mean;
  Vector inv_std;  ///< 1/std, 0 for constant features.
};

FeatureScaler FitScaler(const InstanceSample& sample, std::size_t network) {
  const std::size_t begin = sample.network_offsets[network];
  const std::size_t end = sample.network_offsets[network + 1];
  const std::size_t d = sample.feature_dims[network];
  FeatureScaler scaler{Vector(d), Vector(d)};
  const double count = std::max<double>(1.0, static_cast<double>(end - begin));
  for (std::size_t i = begin; i < end; ++i) {
    scaler.mean += sample.instances[i].features;
  }
  scaler.mean /= count;
  Vector var(d);
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = sample.instances[i].features[k] - scaler.mean[k];
      var[k] += diff * diff;
    }
  }
  for (std::size_t k = 0; k < d; ++k) {
    const double std = std::sqrt(var[k] / count);
    scaler.inv_std[k] = std > 1e-12 ? 1.0 / std : 0.0;
  }
  return scaler;
}

// Projects every fibre of `raw` (d x n x n) through fᵀ (d x c) after
// standardising it, giving a c x n x n tensor. The raw tensor stays CSR;
// each row is decompressed into a d x n panel so the fibre reads are
// O(1) and the per-element sum runs d ascending over the exact dense
// values (absent entries are exact zeros) — bit-identical to projecting
// the densified tensor.
Tensor3 ProjectTensor(const SparseTensor3& raw, const FeatureScaler& scaler,
                      const Matrix& f) {
  SLAMPRED_CHECK(f.rows() == raw.dim0()) << "projection dim mismatch";
  const std::size_t c = f.cols();
  const std::size_t d = raw.dim0();
  const std::size_t n1 = raw.dim1();
  const std::size_t n2 = raw.dim2();
  Tensor3 out(c, n1, n2);
  Matrix panel(d, n2);
  for (std::size_t i = 0; i < n1; ++i) {
    std::fill(panel.data().begin(), panel.data().end(), 0.0);
    for (std::size_t dd = 0; dd < d; ++dd) {
      const CsrMatrix& slice = raw.SliceCsr(dd);
      for (std::size_t p = slice.row_ptr()[i]; p < slice.row_ptr()[i + 1];
           ++p) {
        panel(dd, slice.col_idx()[p]) = slice.values()[p];
      }
    }
    for (std::size_t j = 0; j < n2; ++j) {
      for (std::size_t cc = 0; cc < c; ++cc) {
        double sum = 0.0;
        for (std::size_t dd = 0; dd < d; ++dd) {
          const double z =
              (panel(dd, j) - scaler.mean[dd]) * scaler.inv_std[dd];
          sum += f(dd, cc) * z;
        }
        out(cc, i, j) = sum;
      }
    }
  }
  return out;
}

// Re-indexes a `slices`-slice source-coordinate feature map into target
// coordinates through the anchors and sums it over its slices, row by
// row, so no slices x n_t x n_t tensor is ever built. `load_row(s,
// panel)` writes slice c of source pair (s, s') to panel(c, s'). A
// covered pair (both endpoints anchored, off the diagonal) sums its
// slices. Pairs without transferred evidence (either endpoint
// unanchored) are imputed at the mean of the covered pairs, per slice:
// transferred information should *rerank* the pairs it covers, not
// systematically push every uncovered pair below every covered one —
// without the imputation, partial anchor ratios (Table II's sweep)
// degrade instead of interpolating. The diagonal stays empty, and the
// whole map does when nothing is anchored. Each slice mean sums the
// covered pairs in ascending (t_i, t_j), and each entry its slices in
// ascending c.
template <typename LoadRow>
CsrMatrix ReindexedSliceSum(std::size_t slices, std::size_t n_source,
                            const AnchorLinks& anchors, std::size_t n_target,
                            const LoadRow& load_row) {
  std::vector<std::optional<std::size_t>> right(n_target);
  for (std::size_t t = 0; t < n_target; ++t) right[t] = anchors.RightOf(t);

  std::vector<double> slice_sum(slices, 0.0);
  std::size_t covered = 0;
  Matrix panel(slices, n_source);
  for (std::size_t ti = 0; ti < n_target; ++ti) {
    if (!right[ti].has_value()) continue;
    load_row(*right[ti], panel);
    for (std::size_t tj = 0; tj < n_target; ++tj) {
      if (tj == ti || !right[tj].has_value()) continue;
      ++covered;
      for (std::size_t c = 0; c < slices; ++c) {
        slice_sum[c] += panel(c, *right[tj]);
      }
    }
  }
  if (covered == 0) {
    return CsrMatrix::FromTriplets(n_target, n_target, {});  // No anchors.
  }
  double fill = 0.0;
  for (std::size_t c = 0; c < slices; ++c) {
    fill += slice_sum[c] / static_cast<double>(covered);
  }

  std::vector<std::vector<CsrMatrix::RowEntry>> rows(n_target);
  const std::size_t grain = GrainForWork(n_target * slices);
  ParallelFor(0, n_target, grain, [&](std::size_t row0, std::size_t row1) {
    Matrix row_panel(slices, n_source);
    for (std::size_t ti = row0; ti < row1; ++ti) {
      if (right[ti].has_value()) load_row(*right[ti], row_panel);
      rows[ti].reserve(n_target - 1);
      for (std::size_t tj = 0; tj < n_target; ++tj) {
        if (tj == ti) continue;
        double value = fill;
        if (right[ti].has_value() && right[tj].has_value()) {
          value = 0.0;
          for (std::size_t c = 0; c < slices; ++c) {
            value += row_panel(c, *right[tj]);
          }
        }
        rows[ti].push_back({tj, value});
      }
    }
  });
  return CsrMatrix::FromRows(n_target, std::move(rows));
}

}  // namespace

Result<AdaptedFeatures> AdaptDomains(
    const AlignedNetworks& networks, const SocialGraph& target_structure,
    const std::vector<SparseTensor3>& raw_tensors,
    const DomainAdapterOptions& options, Rng& rng) {
  if (raw_tensors.size() != networks.num_sources() + 1) {
    return Status::InvalidArgument("need one raw tensor per network");
  }

  auto sample_result = SampleLinkInstances(networks, target_structure,
                                           raw_tensors, options.sampling,
                                           rng);
  if (!sample_result.ok()) return sample_result.status();
  InstanceSample& sample = sample_result.value();

  // Standardise instance features per network; the same scalers are
  // applied to every fibre at projection time.
  std::vector<FeatureScaler> scalers;
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    scalers.push_back(FitScaler(sample, k));
    for (std::size_t i = sample.network_offsets[k];
         i < sample.network_offsets[k + 1]; ++i) {
      Vector& f = sample.instances[i].features;
      for (std::size_t d = 0; d < f.size(); ++d) {
        f[d] = (f[d] - scalers[k].mean[d]) * scalers[k].inv_std[d];
      }
    }
  }

  std::vector<const AnchorLinks*> anchors;
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    anchors.push_back(&networks.anchors(k));
  }
  const CsrMatrix w_a = BuildAlignedIndicator(sample, anchors);
  const CsrMatrix w_s = BuildSimilarIndicator(sample);
  const CsrMatrix w_d = BuildDissimilarIndicator(sample);

  auto proj = SolveProjections(sample, w_a, w_s, w_d, options.projection);
  if (!proj.ok()) return proj.status();

  AdaptedFeatures out;
  out.projections = proj.value().projections;
  out.eigenvalues = proj.value().eigenvalues;

  // Generalized eigenvectors carry an arbitrary sign, but the intimacy
  // term ‖S ∘ X̂‖₁ reads latent coordinates as non-negative closeness
  // scores. Orient every latent dimension so existing-link instances
  // score higher on average, and record each dimension's Fisher-style
  // label separation — the separation later weights the dimension's
  // slice so discriminative directions dominate noisy ones.
  const std::size_t latent = options.projection.latent_dim;
  Vector separation(latent);
  for (std::size_t c = 0; c < latent; ++c) {
    double mean_pos = 0.0, mean_neg = 0.0, sq = 0.0;
    std::size_t n_pos = 0, n_neg = 0;
    std::vector<double> values(sample.total());
    for (std::size_t i = 0; i < sample.total(); ++i) {
      const LinkInstance& inst = sample.instances[i];
      const Matrix& f = out.projections[inst.network];
      double value = 0.0;
      for (std::size_t d = 0; d < inst.features.size(); ++d) {
        value += f(d, c) * inst.features[d];
      }
      values[i] = value;
      if (inst.exists) {
        mean_pos += value;
        ++n_pos;
      } else {
        mean_neg += value;
        ++n_neg;
      }
    }
    if (n_pos > 0) mean_pos /= static_cast<double>(n_pos);
    if (n_neg > 0) mean_neg /= static_cast<double>(n_neg);
    for (double v : values) {
      const double mixed = v - 0.5 * (mean_pos + mean_neg);
      sq += mixed * mixed;
    }
    const double spread =
        std::sqrt(sq / std::max<double>(1.0, sample.total())) + 1e-9;
    if (mean_pos < mean_neg) {
      for (Matrix& f : out.projections) {
        for (std::size_t d = 0; d < f.rows(); ++d) f(d, c) = -f(d, c);
      }
    }
    separation[c] = std::fabs(mean_pos - mean_neg) / spread;
  }
  // Normalise weights so the best dimension has weight 1.
  const double max_sep = std::max(separation.NormInf(), 1e-12);
  for (std::size_t c = 0; c < latent; ++c) separation[c] /= max_sep;

  out.separation = separation;

  // Sources: project in source coordinates, min-max normalise each
  // slice to [0, 1] (the intimacy terms read them as non-negative
  // scores), then weight every slice by its separation while re-indexing
  // through the anchors and summing.
  const std::size_t n_target = networks.target().NumUsers();
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    Tensor3 projected = ProjectTensor(raw_tensors[k + 1], scalers[k + 1],
                                      out.projections[k + 1]);
    projected.NormalizeSlicesMinMax();
    out.slice_sums.push_back(ReindexedSliceSum(
        latent, projected.dim2(), networks.anchors(k), n_target,
        [&](std::size_t s, Matrix& panel) {
          for (std::size_t c = 0; c < latent; ++c) {
            for (std::size_t t = 0; t < projected.dim2(); ++t) {
              panel(c, t) = projected(c, s, t) * separation[c];
            }
          }
        }));
  }
  return out;
}

Result<AdaptedFeatures> PassthroughAdapt(
    const AlignedNetworks& networks,
    const std::vector<SparseTensor3>& raw_tensors) {
  if (raw_tensors.size() != networks.num_sources() + 1) {
    return Status::InvalidArgument("need one raw tensor per network");
  }
  AdaptedFeatures out;
  const std::size_t n_target = networks.target().NumUsers();
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    const SparseTensor3& raw = raw_tensors[k + 1];
    out.slice_sums.push_back(ReindexedSliceSum(
        raw.dim0(), raw.dim2(), networks.anchors(k), n_target,
        [&](std::size_t s, Matrix& panel) {
          std::fill(panel.data().begin(), panel.data().end(), 0.0);
          for (std::size_t c = 0; c < raw.dim0(); ++c) {
            const CsrMatrix& slice = raw.SliceCsr(c);
            for (std::size_t p = slice.row_ptr()[s];
                 p < slice.row_ptr()[s + 1]; ++p) {
              panel(c, slice.col_idx()[p]) = slice.values()[p];
            }
          }
        }));
  }
  return out;
}

}  // namespace slampred
