// End-to-end domain adaptation (Section III-C): samples link instances,
// builds the aligned indicator W_A, solves Theorem 1 (W_S and W_D read
// from the existence labels) for the per-network projections F^k, and
// produces each source's adapted features X̂^k. The target's instances
// take part in learning the projections, but its own tensor is never
// projected — the fit pipeline reads it raw (DESIGN.md §5, deviation
// 5). The solve reads a source only through Σ_c X̂^k(c,:,:), its term
// of the CCCP gradient G, so that sum is all the adapter returns: one
// n_t x n_t CSR per source, built row by row in *target* user
// coordinates through the anchor links. A source pair only contributes
// where both endpoints are anchored, which is exactly how the
// anchor-sampling ratio modulates how much transferred signal SLAMPRED
// sees. The c x n_s x n_s projection is never built: one parallel pass
// over the source rows finds each latent slice's min-max range, and the
// re-index projects the anchored rows at the anchored columns only, so
// the adapter's transients are O(n_s·d) per row besides its output,
// and Theorem 1's are O(|L|·d) besides the d x d sandwiches.

#ifndef SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_
#define SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_

#include <vector>

#include "embedding/link_instance.h"
#include "embedding/projection_solver.h"
#include "graph/aligned_networks.h"
#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/sparse_tensor3.h"
#include "util/random.h"
#include "util/status.h"

namespace slampred {

/// Adaptation controls.
struct DomainAdapterOptions {
  ProjectionOptions projection;
  InstanceSampleOptions sampling;
};

/// Adapted source features, all in target coordinates.
struct AdaptedFeatures {
  /// slice_sums[k] = Σ_c X̂^k(c,:,:): source k's slices mapped through
  /// its anchors into target coordinates and summed (n_t x n_t); one per
  /// source network. The covered-mean fill makes it nearly dense.
  std::vector<CsrMatrix> slice_sums;
  /// The learned projections (projections[k] is d_k x c). Empty on the
  /// passthrough path, like `eigenvalues` and `separation`.
  std::vector<Matrix> projections;
  Vector eigenvalues;  ///< Generalized eigenvalues behind the projection.
  /// separation[c] = latent dimension c's label separation, scaled so
  /// the best dimension is 1: the weight of every source's slice c.
  Vector separation;
};

/// Runs the full pipeline. `raw_tensors[0]` must be the target's feature
/// tensor built on `target_structure` (read for the instance sample
/// only); `raw_tensors[k]` source k's tensor on its own graph. Each
/// source is projected into c latent slices, min-max normalised,
/// weighted by its dimension's label separation and summed — bit for
/// bit what projecting into a dense c x n_s x n_s Tensor3,
/// Tensor3::NormalizeSlicesMinMax and a dense re-index give.
/// Deterministic given `rng`'s state, for any thread count.
Result<AdaptedFeatures> AdaptDomains(const AlignedNetworks& networks,
                                     const SocialGraph& target_structure,
                                     const std::vector<SparseTensor3>& raw_tensors,
                                     const DomainAdapterOptions& options,
                                     Rng& rng);

/// Ablation path (EXP-A2): skips the learned projection entirely and
/// simply re-indexes the *raw* source slices into target coordinates
/// through the anchors and sums them, one CSR per source
/// (`raw_tensors[0]`, the target, is not read). This is what
/// "transferring without domain adaptation" means for a
/// matrix-estimation model.
Result<AdaptedFeatures> PassthroughAdapt(
    const AlignedNetworks& networks,
    const std::vector<SparseTensor3>& raw_tensors);

}  // namespace slampred

#endif  // SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_
