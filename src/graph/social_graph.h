// Plain undirected social graph over users: the structure the link
// predictors operate on. Built either directly (tests, baselines) or as
// the friend-edge view of a HeterogeneousNetwork.

#ifndef SLAMPRED_GRAPH_SOCIAL_GRAPH_H_
#define SLAMPRED_GRAPH_SOCIAL_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

class HeterogeneousNetwork;

/// Undirected user pair, normalised so u < v.
struct UserPair {
  std::size_t u;
  std::size_t v;

  bool operator==(const UserPair& other) const {
    return u == other.u && v == other.v;
  }
  bool operator<(const UserPair& other) const {
    return u != other.u ? u < other.u : v < other.v;
  }
};

/// Returns the normalised (min, max) pair.
UserPair MakeUserPair(std::size_t a, std::size_t b);

/// Undirected simple graph on a fixed user set.
class SocialGraph {
 public:
  /// Empty graph on `num_users` users.
  explicit SocialGraph(std::size_t num_users = 0);

  /// Extracts the friend-edge subgraph of a heterogeneous network.
  static SocialGraph FromHeterogeneousNetwork(
      const HeterogeneousNetwork& network);

  std::size_t num_users() const { return adjacency_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge {u, v}; rejects self-loops and out-of-range
  /// endpoints, ignores duplicates.
  Status AddEdge(std::size_t u, std::size_t v);

  /// True iff {u, v} is an edge.
  bool HasEdge(std::size_t u, std::size_t v) const;

  /// Sorted neighbor list of `u`.
  const std::vector<std::size_t>& Neighbors(std::size_t u) const;

  /// Degree of `u`.
  std::size_t Degree(std::size_t u) const { return Neighbors(u).size(); }

  /// All edges as normalised pairs, sorted.
  std::vector<UserPair> Edges() const;

  /// Symmetric 0/1 adjacency matrix (the paper's Aᵗ), densified.
  /// Prefer AdjacencyCsr — the dense form is O(n²) and only kept for
  /// tests and the dense reference kernels.
  Matrix AdjacencyMatrix() const;

  /// Symmetric 0/1 adjacency in CSR, built straight from the sorted
  /// neighbor lists in O(nnz) — the pipeline's default Aᵗ.
  CsrMatrix AdjacencyCsr() const;

  /// Fraction of realised links among all possible pairs.
  double Density() const;

  /// Copy of this graph with the listed edges removed (used to hide a
  /// test fold). Edges not present are ignored.
  SocialGraph WithEdgesRemoved(const std::vector<UserPair>& edges) const;

 private:
  std::vector<std::vector<std::size_t>> adjacency_;
  std::size_t num_edges_ = 0;
};

}  // namespace slampred

#endif  // SLAMPRED_GRAPH_SOCIAL_GRAPH_H_
