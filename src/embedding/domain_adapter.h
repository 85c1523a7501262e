// End-to-end domain adaptation (Section III-C): samples link instances,
// builds the W_A / W_S / W_D indicators, solves Theorem 1 for the
// per-network projections F^k, and produces the adapted *source* tensors
// X̂^k. The target's instances take part in learning the projections,
// but its own tensor is never projected — the fit pipeline reads it raw
// (DESIGN.md §5, deviation 5). Source tensors are re-indexed into
// *target* user coordinates through the anchor links — a source pair
// only contributes where both endpoints are anchored, which is exactly
// how the anchor-sampling ratio modulates how much transferred signal
// SLAMPRED sees.

#ifndef SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_
#define SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_

#include <vector>

#include "embedding/link_instance.h"
#include "embedding/projection_solver.h"
#include "graph/aligned_networks.h"
#include "graph/social_graph.h"
#include "linalg/sparse_tensor3.h"
#include "util/random.h"
#include "util/status.h"

namespace slampred {

/// Adaptation controls.
struct DomainAdapterOptions {
  ProjectionOptions projection;
  InstanceSampleOptions sampling;
};

/// Adapted source tensors, all in target coordinates.
struct AdaptedFeatures {
  /// tensors[k] = source k's features mapped through its anchors into
  /// target coordinates (n_t x n_t slices); one per source network.
  /// Stored sparse: the projection itself is dense work, but the
  /// adapted slices sparsify at the boundary so downstream consumers
  /// (objective, scorers) stay on the CSR path.
  std::vector<SparseTensor3> tensors;
  /// The learned projections (projections[k] is d_k x c).
  std::vector<Matrix> projections;
  Vector eigenvalues;  ///< Generalized eigenvalues behind the projection.
};

/// Runs the full pipeline. `raw_tensors[0]` must be the target's feature
/// tensor built on `target_structure` (read for the instance sample
/// only); `raw_tensors[k]` source k's tensor on its own graph. Each
/// source comes back projected into c latent slices, min-max normalised
/// and weighted by its dimension's label separation. Deterministic
/// given `rng`'s state.
Result<AdaptedFeatures> AdaptDomains(const AlignedNetworks& networks,
                                     const SocialGraph& target_structure,
                                     const std::vector<SparseTensor3>& raw_tensors,
                                     const DomainAdapterOptions& options,
                                     Rng& rng);

/// Ablation path (EXP-A2): skips the learned projection entirely and
/// simply re-indexes the *raw* source tensors into target coordinates
/// through the anchors, one per source (`raw_tensors[0]`, the target,
/// is not read). This is what "transferring without domain adaptation"
/// means for a matrix-estimation model.
Result<AdaptedFeatures> PassthroughAdapt(
    const AlignedNetworks& networks,
    const std::vector<SparseTensor3>& raw_tensors);

}  // namespace slampred

#endif  // SLAMPRED_EMBEDDING_DOMAIN_ADAPTER_H_
