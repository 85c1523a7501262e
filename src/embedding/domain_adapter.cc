#include "embedding/domain_adapter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "embedding/indicator_matrices.h"
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

// Writes the fibres of row s of `raw` (d x n x n) into `panel` (d x n):
// panel(:, j) = raw(:, s, j), standardised by `scaler` when one is given
// (an absent entry standardises as an exact 0.0 would).
void LoadFibres(const SparseTensor3& raw, std::size_t s,
                const FeatureScaler* scaler, Matrix& panel) {
  for (std::size_t dd = 0; dd < raw.dim0(); ++dd) {
    auto scale = [&](double v) {
      return scaler == nullptr
                 ? v
                 : (v - scaler->mean[dd]) * scaler->inv_std[dd];
    };
    double* row = panel.data().data() + dd * panel.cols();
    std::fill(row, row + panel.cols(), scale(0.0));
    raw.ForEachInRow(dd, s, [&](std::size_t j, double v) { row[j] = scale(v); });
  }
}

// out[j] = Σ_d f(d, c)·panel(d, j) for every column j of `panel`, each
// sum running d ascending from 0.0. The j loop is innermost, so the
// columns project side by side without reassociating any sum.
void ProjectColumns(const Matrix& f, std::size_t c, const Matrix& panel,
                    double* out) {
  const std::size_t n = panel.cols();
  std::fill(out, out + n, 0.0);
  for (std::size_t dd = 0; dd < f.rows(); ++dd) {
    const double w = f(dd, c);
    const double* z = panel.data().data() + dd * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += w * z[j];
  }
}

// Each latent slice's [lo, hi] over all n x n projected source pairs,
// the diagonal included — the extremes Tensor3::NormalizeSlicesMinMax
// finds on the projected tensor, without building it. Min and max are
// exact in any order, so the rows are projected in parallel.
struct LatentRange {
  std::vector<double> lo;
  std::vector<double> hi;
};

LatentRange ProjectedRange(const SparseTensor3& raw,
                           const FeatureScaler& scaler, const Matrix& f) {
  SLAMPRED_CHECK(f.rows() == raw.dim0()) << "projection dim mismatch";
  const std::size_t c = f.cols();
  const std::size_t n = raw.dim1();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const LatentRange empty{std::vector<double>(c, kInf),
                          std::vector<double>(c, -kInf)};
  LatentRange range = empty;
  std::mutex mutex;
  ParallelFor(0, n, GrainForWork(n * c * raw.dim0()),
              [&](std::size_t row0, std::size_t row1) {
                Matrix panel(raw.dim0(), n);
                std::vector<double> projected(n);
                LatentRange chunk = empty;
                for (std::size_t s = row0; s < row1; ++s) {
                  LoadFibres(raw, s, &scaler, panel);
                  for (std::size_t cc = 0; cc < c; ++cc) {
                    ProjectColumns(f, cc, panel, projected.data());
                    for (double v : projected) {
                      chunk.lo[cc] = std::min(chunk.lo[cc], v);
                      chunk.hi[cc] = std::max(chunk.hi[cc], v);
                    }
                  }
                }
                std::lock_guard<std::mutex> lock(mutex);
                for (std::size_t cc = 0; cc < c; ++cc) {
                  range.lo[cc] = std::min(range.lo[cc], chunk.lo[cc]);
                  range.hi[cc] = std::max(range.hi[cc], chunk.hi[cc]);
                }
              });
  return range;
}

// Re-indexes a `slices`-slice source-coordinate feature map into target
// coordinates through the anchors and sums it over its slices, so no
// slices x n_t x n_t tensor is ever built. `load_row(s, cols, values)`
// writes slice c of source pair (s, cols[t]) to values[c·|cols| + t],
// where `cols` are the anchored source users in target order — the
// only columns a sum reads. A covered pair (both endpoints anchored,
// off the diagonal) sums its slices. Pairs without transferred evidence
// (either endpoint unanchored) are imputed at the mean of the covered
// pairs, per slice: transferred information should *rerank* the pairs
// it covers, not systematically push every uncovered pair below every
// covered one — without the imputation, partial anchor ratios (Table
// II's sweep) degrade instead of interpolating. The diagonal stays
// empty, and the whole map does when nothing is anchored. Each slice
// mean sums the covered pairs in ascending (t_i, t_j), and each entry
// its slices in ascending c; one serial pass over the anchored rows
// computes both, so every source row is loaded once. The covered sums
// wait in an |anchored|² block until the fill is known.
template <typename LoadRow>
CsrMatrix ReindexedSliceSum(std::size_t slices, const AnchorLinks& anchors,
                            std::size_t n_target, const LoadRow& load_row) {
  std::vector<std::optional<std::size_t>> right(n_target);
  std::vector<std::size_t> cols;
  for (std::size_t t = 0; t < n_target; ++t) {
    right[t] = anchors.RightOf(t);
    if (right[t].has_value()) cols.push_back(*right[t]);
  }
  if (cols.size() < 2) {
    return CsrMatrix::FromTriplets(n_target, n_target, {});  // No pairs.
  }

  const std::size_t m = cols.size();
  std::vector<std::size_t> anchored_index(n_target, 0);  // Into `cols`.
  std::vector<double> slice_sum(slices, 0.0);
  std::vector<double> values(m * slices);
  std::vector<double> covered_sum(m * m, 0.0);
  for (std::size_t ti = 0, a = 0; ti < n_target; ++ti) {
    if (!right[ti].has_value()) continue;
    anchored_index[ti] = a;
    load_row(*right[ti], cols, values);
    for (std::size_t t = 0; t < m; ++t) {
      if (t == a) continue;
      double value = 0.0;
      for (std::size_t c = 0; c < slices; ++c) {
        slice_sum[c] += values[c * m + t];
        value += values[c * m + t];
      }
      covered_sum[a * m + t] = value;
    }
    ++a;
  }
  const double covered = static_cast<double>(m * (m - 1));
  double fill = 0.0;
  for (std::size_t c = 0; c < slices; ++c) fill += slice_sum[c] / covered;

  return CsrMatrix::FromRowFill(
      n_target, n_target, GrainForWork(n_target),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        for (std::size_t ti = row0; ti < row1; ++ti) {
          const double* row = right[ti].has_value()
                                  ? &covered_sum[anchored_index[ti] * m]
                                  : nullptr;
          for (std::size_t tj = 0; tj < n_target; ++tj) {
            if (tj == ti) continue;
            out.Push(tj, row != nullptr && right[tj].has_value()
                             ? row[anchored_index[tj]]
                             : fill);
          }
          out.EndRow();
        }
      });
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
  auto proj = SolveProjections(sample, BuildAlignedIndicator(sample, anchors),
                               options.projection);
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
  // through the anchors and summing. The projection is streamed: one
  // pass finds each slice's range, and the re-index projects the
  // anchored rows at the anchored columns only.
  const std::size_t n_target = networks.target().NumUsers();
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    const SparseTensor3& raw = raw_tensors[k + 1];
    const FeatureScaler& scaler = scalers[k + 1];
    const Matrix& f = out.projections[k + 1];
    const LatentRange range = ProjectedRange(raw, scaler, f);
    Matrix panel(raw.dim0(), raw.dim1());
    Matrix anchored;
    out.slice_sums.push_back(ReindexedSliceSum(
        latent, networks.anchors(k), n_target,
        [&](std::size_t s, const std::vector<std::size_t>& cols,
            std::vector<double>& values) {
          // Only the anchored columns are projected.
          LoadFibres(raw, s, &scaler, panel);
          if (anchored.cols() != cols.size()) {
            anchored = Matrix(raw.dim0(), cols.size());
          }
          for (std::size_t dd = 0; dd < raw.dim0(); ++dd) {
            for (std::size_t t = 0; t < cols.size(); ++t) {
              anchored(dd, t) = panel(dd, cols[t]);
            }
          }
          for (std::size_t c = 0; c < latent; ++c) {
            double* row = values.data() + c * cols.size();
            ProjectColumns(f, c, anchored, row);
            const double width = range.hi[c] - range.lo[c];
            for (std::size_t t = 0; t < cols.size(); ++t) {
              const double unit =
                  width > 0.0 ? (row[t] - range.lo[c]) / width : 0.0;
              row[t] = unit * separation[c];
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
    Matrix panel(raw.dim0(), raw.dim1());
    out.slice_sums.push_back(ReindexedSliceSum(
        raw.dim0(), networks.anchors(k), n_target,
        [&](std::size_t s, const std::vector<std::size_t>& cols,
            std::vector<double>& values) {
          LoadFibres(raw, s, nullptr, panel);
          for (std::size_t c = 0; c < raw.dim0(); ++c) {
            for (std::size_t t = 0; t < cols.size(); ++t) {
              values[c * cols.size() + t] = panel(c, cols[t]);
            }
          }
        }));
  }
  return out;
}

}  // namespace slampred
