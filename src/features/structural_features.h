// Structural intimacy features over user pairs, computed from an
// (observed / training) social graph: the classic neighborhood predictors
// plus truncated path counts. Each extractor returns a full n x n
// symmetric feature map (one slice of the paper's X^k tensor).
// Preferential attachment has no CSR extractor: deg(u)·deg(v) is rank one,
// so the sparse feature build keeps it as the degree vector
// (SparseTensor3::SetDegreeSlice); PreferentialAttachmentMap is the
// dense reference of that slice.

#ifndef SLAMPRED_FEATURES_STRUCTURAL_FEATURES_H_
#define SLAMPRED_FEATURES_STRUCTURAL_FEATURES_H_

#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"

namespace slampred {

/// Common-neighbor counts |Γ(u) ∩ Γ(v)|.
Matrix CommonNeighborsMap(const SocialGraph& graph);

/// Jaccard coefficients |Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)| (0 when the union
/// is empty).
Matrix JaccardMap(const SocialGraph& graph);

/// Adamic–Adar scores Σ_{w ∈ Γ(u)∩Γ(v)} 1/log(deg(w)) (degree-1 common
/// neighbors contribute with log replaced by log 2).
Matrix AdamicAdarMap(const SocialGraph& graph);

/// Resource-allocation scores Σ_{w ∈ Γ(u)∩Γ(v)} 1/deg(w).
Matrix ResourceAllocationMap(const SocialGraph& graph);

/// Preferential-attachment products deg(u) * deg(v) (0 on the diagonal).
Matrix PreferentialAttachmentMap(const SocialGraph& graph);

/// Truncated Katz index β A² + β² A³ (paths of length 2 and 3); captures
/// slightly longer-range closure than CN without a matrix inverse.
Matrix TruncatedKatzMap(const SocialGraph& graph, double beta = 0.05);

// Sparse-native builders — the pipeline's default path. Each produces
// the CSR form of the matching dense map above with bit-identical
// stored values (the dense maps are kept as the equivalence-test
// references): the per-element accumulation order is the same and every
// skipped zero term is an exact no-op. Work and memory scale with the
// two-hop neighborhood size (O(Σ deg²)) instead of n².

/// CSR CommonNeighborsMap.
CsrMatrix CommonNeighborsCsr(const SocialGraph& graph);

/// CSR JaccardMap (pattern = the common-neighbor pattern).
CsrMatrix JaccardCsr(const SocialGraph& graph);

/// CSR AdamicAdarMap.
CsrMatrix AdamicAdarCsr(const SocialGraph& graph);

/// CSR ResourceAllocationMap.
CsrMatrix ResourceAllocationCsr(const SocialGraph& graph);

/// CSR TruncatedKatzMap in one row-gather pass: each row counts its
/// 2-walks and 3-walks in two scratch rows and emits c₂·β + c₃·(β·β)
/// off the diagonal, so neither A² nor A³ is ever stored: besides
/// per-chunk scratch rows, the build holds only its output.
CsrMatrix TruncatedKatzCsr(const SocialGraph& graph, double beta = 0.05);

}  // namespace slampred

#endif  // SLAMPRED_FEATURES_STRUCTURAL_FEATURES_H_
