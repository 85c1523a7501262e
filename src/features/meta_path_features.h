// Meta-path based intimacy features over the heterogeneous network —
// the feature family of the paper's reference [28] ("the same set of
// features introduced in [28]", Section IV-B1). A meta path is a typed
// walk schema; the feature value of a user pair is the (normalised)
// number of path instances connecting them:
//
//   U→U→U            friend-of-friend closure (structure)
//   U→P→W→P→U        shared-word co-usage
//   U→P→T→P→U        co-activity in the same time bin
//   U→P→L→P→U        co-checkin at the same location
//
// Raw instance counts explode with hub attributes (a common word links
// everyone), so each count is normalised symmetrically:
// score(u,v) = count(u,v) / sqrt(count(u,u) · count(v,v)) — the
// "symmetric random walk" normalisation used for meta-path similarity
// (PathSim-style).

#ifndef SLAMPRED_FEATURES_META_PATH_FEATURES_H_
#define SLAMPRED_FEATURES_META_PATH_FEATURES_H_

#include <string>
#include <vector>

#include "graph/heterogeneous_network.h"
#include "graph/social_graph.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

/// The supported meta-path schemas.
enum class MetaPath {
  kUserUserUser,          ///< U −friend→ U −friend→ U.
  kUserPostWordPostUser,  ///< U −write→ P −word→ W ←word− P ←write− U.
  kUserPostTimePostUser,  ///< via shared timestamp bins.
  kUserPostLocationPostUser,  ///< via shared checkin locations.
};

/// Stable display name ("U-U-U", "U-P-W-P-U", ...).
const char* MetaPathName(MetaPath path);

/// All supported schemas in a fixed order.
std::vector<MetaPath> AllMetaPaths();

/// Computes the PathSim-normalised meta-path similarity map for one
/// schema: an n x n symmetric matrix with zero diagonal, entries in
/// [0, 1].
Matrix MetaPathSimilarityMap(const HeterogeneousNetwork& network,
                             MetaPath path);

/// The U-U-U slice of the feature tensor: the PathSim-normalised A²
/// similarity over `structure` — the (training) structure graph, not
/// the network's full friend layer, so held-out links never leak. Rows
/// are built in parallel, one writing chunk per row.
Matrix StructuralPathSimilarityMap(const SocialGraph& structure);

/// Computes the *raw* (unnormalised) commuting-count matrix for the
/// schema — exposed for tests and for callers that want their own
/// normalisation. Diagonal holds count(u, u).
Matrix MetaPathCountMap(const HeterogeneousNetwork& network, MetaPath path);

}  // namespace slampred

#endif  // SLAMPRED_FEATURES_META_PATH_FEATURES_H_
