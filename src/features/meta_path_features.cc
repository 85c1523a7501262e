#include "features/meta_path_features.h"

#include <cmath>

#include "features/attribute_features.h"
#include "graph/social_graph.h"
#include "linalg/matrix_ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

const char* MetaPathName(MetaPath path) {
  switch (path) {
    case MetaPath::kUserUserUser:
      return "U-U-U";
    case MetaPath::kUserPostWordPostUser:
      return "U-P-W-P-U";
    case MetaPath::kUserPostTimePostUser:
      return "U-P-T-P-U";
    case MetaPath::kUserPostLocationPostUser:
      return "U-P-L-P-U";
  }
  return "?";
}

std::vector<MetaPath> AllMetaPaths() {
  return {MetaPath::kUserUserUser, MetaPath::kUserPostWordPostUser,
          MetaPath::kUserPostTimePostUser,
          MetaPath::kUserPostLocationPostUser};
}

namespace {

// Commuting matrix of U→P→A→P→U: M = B Bᵀ where B(u, a) counts how many
// of u's posts attach to attribute value a. This equals the number of
// (post, post') pairs of u and v sharing attribute a, summed over a —
// the meta-path instance count.
Matrix AttributeCommuting(const HeterogeneousNetwork& network,
                          AttributeKind kind) {
  const Matrix profile = UserAttributeProfile(network, kind);
  return GramAAt(profile);
}

}  // namespace

Matrix StructuralPathSimilarityMap(const SocialGraph& structure) {
  const std::size_t n = structure.num_users();
  const Matrix a = structure.AdjacencyMatrix();
  Matrix counts = a * a;
  Matrix sim(n, n);
  // Full-row form so every row has one writing chunk; counts is
  // symmetric and sqrt(cu*cv) == sqrt(cv*cu), so (u,v) and (v,u) still
  // match exactly.
  ParallelFor(0, n, GrainForWork(n), [&](std::size_t row0, std::size_t row1) {
    for (std::size_t u = row0; u < row1; ++u) {
      const double cu = counts(u, u);
      if (cu <= 0.0) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (v == u) continue;
        const double cv = counts(v, v);
        if (cv <= 0.0) continue;
        sim(u, v) = counts(u, v) / std::sqrt(cu * cv);
      }
    }
  });
  return sim;
}

Matrix MetaPathCountMap(const HeterogeneousNetwork& network, MetaPath path) {
  switch (path) {
    case MetaPath::kUserUserUser: {
      // A² counts length-2 friend paths; diagonal = degree.
      const Matrix a =
          SocialGraph::FromHeterogeneousNetwork(network).AdjacencyMatrix();
      return a * a;
    }
    case MetaPath::kUserPostWordPostUser:
      return AttributeCommuting(network, AttributeKind::kWord);
    case MetaPath::kUserPostTimePostUser:
      return AttributeCommuting(network, AttributeKind::kTimestamp);
    case MetaPath::kUserPostLocationPostUser:
      return AttributeCommuting(network, AttributeKind::kLocation);
  }
  return Matrix();
}

Matrix MetaPathSimilarityMap(const HeterogeneousNetwork& network,
                             MetaPath path) {
  const Matrix counts = MetaPathCountMap(network, path);
  const std::size_t n = counts.rows();
  Matrix sim(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    const double cu = counts(u, u);
    if (cu <= 0.0) continue;
    for (std::size_t v = u + 1; v < n; ++v) {
      const double cv = counts(v, v);
      if (cv <= 0.0) continue;
      const double value = counts(u, v) / std::sqrt(cu * cv);
      sim(u, v) = value;
      sim(v, u) = value;
    }
  }
  return sim;
}

}  // namespace slampred
