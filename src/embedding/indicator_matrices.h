// The aligned-social-link indicator W_A over sampled link instances
// (Section III-C, Definition 4), a symmetric CSR matrix over the
// concatenated instance index space with at most two entries per
// mirrored instance pair. It is the only indicator Theorem 1 stores:
// the label indicators W_S (pairs sharing a link-existence label) and
// W_D (pairs with different labels) are 1_P·1_Pᵀ + 1_N·1_Nᵀ − I and
// 1_P·1_Nᵀ + 1_N·1_Pᵀ in the positive / negative class indicators, so
// their sandwiches are read from the labels (embedding/laplacian.h)
// and never built.

#ifndef SLAMPRED_EMBEDDING_INDICATOR_MATRICES_H_
#define SLAMPRED_EMBEDDING_INDICATOR_MATRICES_H_

#include <vector>

#include "embedding/link_instance.h"
#include "graph/anchor_links.h"
#include "linalg/csr_matrix.h"

namespace slampred {

/// Builds the joint aligned-social-link indicator W_A: entry (i, j) = 1
/// iff instances i and j live in different networks, one of them being
/// the target, and both endpoint users are paired by the corresponding
/// anchor set (anchors[k] relates the target to source k). Symmetric,
/// zero diagonal blocks.
CsrMatrix BuildAlignedIndicator(const InstanceSample& sample,
                                const std::vector<const AnchorLinks*>& anchors);

}  // namespace slampred

#endif  // SLAMPRED_EMBEDDING_INDICATOR_MATRICES_H_
