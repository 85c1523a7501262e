#include "features/attribute_features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

namespace {

EdgeType KindToPostEdge(AttributeKind kind) {
  switch (kind) {
    case AttributeKind::kWord:
      return EdgeType::kHasWord;
    case AttributeKind::kLocation:
      return EdgeType::kCheckin;
    case AttributeKind::kTimestamp:
      return EdgeType::kPostedAt;
  }
  return EdgeType::kHasWord;
}

NodeType KindToNodeType(AttributeKind kind) {
  switch (kind) {
    case AttributeKind::kWord:
      return NodeType::kWord;
    case AttributeKind::kLocation:
      return NodeType::kLocation;
    case AttributeKind::kTimestamp:
      return NodeType::kTimestamp;
  }
  return NodeType::kWord;
}

}  // namespace

Matrix UserAttributeProfile(const HeterogeneousNetwork& network,
                            AttributeKind kind) {
  const std::size_t users = network.NumUsers();
  const std::size_t universe = network.NumNodes(KindToNodeType(kind));
  const EdgeType post_edge = KindToPostEdge(kind);
  Matrix profiles(users, universe);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t post : network.Neighbors(EdgeType::kWrite, u)) {
      for (std::size_t attr : network.Neighbors(post_edge, post)) {
        profiles(u, attr) += 1.0;
      }
    }
  }
  return profiles;
}

Matrix CosineSimilarityMap(const Matrix& profiles) {
  const std::size_t n = profiles.rows();
  Vector norms(n);
  for (std::size_t u = 0; u < n; ++u) {
    double sum = 0.0;
    for (std::size_t a = 0; a < profiles.cols(); ++a) {
      sum += profiles(u, a) * profiles(u, a);
    }
    norms[u] = std::sqrt(sum);
  }
  Matrix map(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    if (norms[u] == 0.0) continue;
    for (std::size_t v = u + 1; v < n; ++v) {
      if (norms[v] == 0.0) continue;
      double dot = 0.0;
      for (std::size_t a = 0; a < profiles.cols(); ++a) {
        dot += profiles(u, a) * profiles(v, a);
      }
      const double sim = dot / (norms[u] * norms[v]);
      map(u, v) = sim;
      map(v, u) = sim;
    }
  }
  return map;
}

Matrix AttributeSimilarityMap(const HeterogeneousNetwork& network,
                              AttributeKind kind) {
  return CosineSimilarityMap(UserAttributeProfile(network, kind));
}

CsrMatrix UserAttributeProfileCsr(const HeterogeneousNetwork& network,
                                  AttributeKind kind) {
  const std::size_t users = network.NumUsers();
  const std::size_t universe = network.NumNodes(KindToNodeType(kind));
  const EdgeType post_edge = KindToPostEdge(kind);
  const std::size_t avg_row_work =
      (network.NumEdges(post_edge) + universe) /
          std::max<std::size_t>(1, users) +
      1;
  // Summing 1.0 per (post, attr) edge gives the same integer counts the
  // dense `+= 1.0` loop produces — exact.
  return CsrMatrix::FromRowFill(
      users, universe, GrainForWork(avg_row_work),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        SparseAccumulator counts(universe);
        for (std::size_t u = row0; u < row1; ++u) {
          for (std::size_t post : network.Neighbors(EdgeType::kWrite, u)) {
            for (std::size_t attr : network.Neighbors(post_edge, post)) {
              counts.Add(attr, 1.0);
            }
          }
          counts.Drain([&](std::size_t attr, double c) { out.Push(attr, c); });
          out.EndRow();
        }
      });
}

CsrMatrix CosineSimilarityCsr(const CsrMatrix& profiles) {
  const std::size_t n = profiles.rows();
  // Norms from stored squares, attribute id ascending. The dense loop
  // also sums its zero squares — exact no-ops on a non-negative sum.
  std::vector<double> norms(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    double sum = 0.0;
    for (std::size_t p = profiles.row_ptr()[u]; p < profiles.row_ptr()[u + 1];
         ++p) {
      sum += profiles.values()[p] * profiles.values()[p];
    }
    norms[u] = std::sqrt(sum);
  }
  // Inverted index: row a of the transpose lists the users holding
  // attribute a, in ascending user order.
  const CsrMatrix pt = profiles.Transposed();
  const std::size_t avg_row_nnz =
      n == 0 ? 1 : profiles.nnz() / std::max<std::size_t>(1, n) + 1;
  return CsrMatrix::FromRowFill(
      n, n, GrainForWork(avg_row_nnz * avg_row_nnz + 1),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        SparseAccumulator dots(n);
        for (std::size_t u = row0; u < row1; ++u) {
          if (norms[u] != 0.0) {
            // Outer loop ascends over u's attributes, so each pair's dot
            // accumulates in the dense a-ascending order (with its exact
            // zero terms skipped — all products are non-negative). Both
            // (u, v) and (v, u) are computed independently from
            // identical term sequences (FP multiplication is
            // commutative), so the map stays exactly symmetric like the
            // dense mirror-write.
            for (std::size_t p = profiles.row_ptr()[u];
                 p < profiles.row_ptr()[u + 1]; ++p) {
              const std::size_t a = profiles.col_idx()[p];
              const double pu = profiles.values()[p];
              for (std::size_t q = pt.row_ptr()[a]; q < pt.row_ptr()[a + 1];
                   ++q) {
                dots.Add(pt.col_idx()[q], pu * pt.values()[q]);
              }
            }
            dots.Drain([&](std::size_t v, double dot) {
              if (v != u && norms[v] != 0.0) {
                out.Push(v, dot / (norms[u] * norms[v]));
              }
            });
          }
          out.EndRow();
        }
      });
}

CsrMatrix AttributeSimilarityCsr(const HeterogeneousNetwork& network,
                                 AttributeKind kind) {
  return CosineSimilarityCsr(UserAttributeProfileCsr(network, kind));
}

}  // namespace slampred
