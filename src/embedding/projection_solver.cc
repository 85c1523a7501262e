#include "embedding/projection_solver.h"

#include <numeric>

#include "embedding/laplacian.h"
#include "linalg/generalized_eigen.h"

namespace slampred {

Result<ProjectionResult> SolveProjections(const InstanceSample& sample,
                                          const CsrMatrix& w_aligned,
                                          const ProjectionOptions& options) {
  const std::size_t total = sample.total();
  if (total == 0) {
    return Status::InvalidArgument("empty instance sample");
  }
  if (w_aligned.rows() != total || w_aligned.cols() != total) {
    return Status::InvalidArgument("aligned indicator order mismatch");
  }
  const std::size_t total_dims =
      std::accumulate(sample.feature_dims.begin(), sample.feature_dims.end(),
                      std::size_t{0});
  if (options.latent_dim == 0 || options.latent_dim > total_dims) {
    return Status::InvalidArgument(
        "latent_dim must be in [1, total feature dims]");
  }

  // A = Z(μ L_A + L_S)Zᵀ and B = Z L_D Zᵀ, with no |L| x |L| object:
  // W_S and W_D are read from the existence labels.
  Matrix a = SandwichLaplacian(sample, w_aligned) * options.mu +
             SandwichLaplacian(sample, LabelIndicator::kSimilar);
  Matrix b = SandwichLaplacian(sample, LabelIndicator::kDissimilar);

  auto gen = ComputeGeneralizedEigen(a.Symmetrized(), b.Symmetrized());
  if (!gen.ok()) return gen.status();
  const Vector& lambda = gen.value().eigenvalues;
  const Matrix& vecs = gen.value().eigenvectors;

  // The c smallest non-zero eigenvalues (Theorem 1), padded with
  // near-zero ones if the spectrum is too degenerate.
  const std::vector<std::size_t> chosen =
      SmallestNonZeroIndices(lambda, options.latent_dim);

  Matrix f(total_dims, options.latent_dim);
  ProjectionResult result;
  result.eigenvalues = Vector(options.latent_dim);
  for (std::size_t c = 0; c < chosen.size(); ++c) {
    f.SetCol(c, vecs.Col(chosen[c]));
    result.eigenvalues[c] = lambda[chosen[c]];
  }

  // Split F into per-network blocks.
  std::size_t row_offset = 0;
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    result.projections.push_back(
        f.Block(row_offset, 0, sample.feature_dims[k], options.latent_dim));
    row_offset += sample.feature_dims[k];
  }
  return result;
}

}  // namespace slampred
