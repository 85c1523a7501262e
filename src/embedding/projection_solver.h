// Solves the joint mapping-function inference of Theorem 1: the stacked
// projection matrix F is given by the eigenvectors of the generalized
// problem  Z(μ L_A + L_S) Zᵀ x = λ Z L_D Zᵀ x  belonging to the c
// smallest non-zero eigenvalues. F splits into one d_k x c projection
// per network. Both sides are (Σ_k d_k) x (Σ_k d_k) and come straight
// from the sample (embedding/laplacian.h): W_A is the one stored
// indicator, W_S and W_D are read from the existence labels, and
// neither Z nor any |L| x |L| matrix is formed.

#ifndef SLAMPRED_EMBEDDING_PROJECTION_SOLVER_H_
#define SLAMPRED_EMBEDDING_PROJECTION_SOLVER_H_

#include <vector>

#include "embedding/link_instance.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

/// Per-network linear projections F^k : R^{d_k} → R^c.
struct ProjectionResult {
  std::vector<Matrix> projections;  ///< projections[k] is d_k x c.
  Vector eigenvalues;               ///< The chosen generalized eigenvalues.
};

/// Controls for the solver.
struct ProjectionOptions {
  std::size_t latent_dim = 5;  ///< c, the shared latent dimension.
  double mu = 1.0;             ///< Weight of the anchor-alignment cost.
};

/// Runs Theorem 1. `w_aligned` is the aligned indicator W_A
/// (embedding/indicator_matrices.h), square over the sample's total
/// instance count; `latent_dim` must not exceed the total feature
/// dimension.
Result<ProjectionResult> SolveProjections(const InstanceSample& sample,
                                          const CsrMatrix& w_aligned,
                                          const ProjectionOptions& options);

}  // namespace slampred

#endif  // SLAMPRED_EMBEDDING_PROJECTION_SOLVER_H_
