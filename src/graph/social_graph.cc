#include "graph/social_graph.h"

#include <algorithm>
#include <set>

#include "graph/heterogeneous_network.h"

namespace slampred {

namespace {
const std::vector<std::size_t> kEmpty;
}

UserPair MakeUserPair(std::size_t a, std::size_t b) {
  return a < b ? UserPair{a, b} : UserPair{b, a};
}

SocialGraph::SocialGraph(std::size_t num_users) : adjacency_(num_users) {}

SocialGraph SocialGraph::FromHeterogeneousNetwork(
    const HeterogeneousNetwork& network) {
  SocialGraph graph(network.NumUsers());
  for (std::size_t u = 0; u < network.NumUsers(); ++u) {
    for (std::size_t v : network.Neighbors(EdgeType::kFriend, u)) {
      if (u < v) {
        graph.AddEdge(u, v);
      }
    }
  }
  return graph;
}

Status SocialGraph::AddEdge(std::size_t u, std::size_t v) {
  if (u >= num_users() || v >= num_users()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loop rejected");
  auto& nu = adjacency_[u];
  auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return Status::OK();  // Duplicate.
  nu.insert(it, v);
  auto& nv = adjacency_[v];
  nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
  ++num_edges_;
  return Status::OK();
}

bool SocialGraph::HasEdge(std::size_t u, std::size_t v) const {
  if (u >= num_users() || v >= num_users()) return false;
  const auto& nu = adjacency_[u];
  return std::binary_search(nu.begin(), nu.end(), v);
}

const std::vector<std::size_t>& SocialGraph::Neighbors(std::size_t u) const {
  if (u >= num_users()) return kEmpty;
  return adjacency_[u];
}

std::vector<UserPair> SocialGraph::Edges() const {
  std::vector<UserPair> edges;
  edges.reserve(num_edges_);
  for (std::size_t u = 0; u < num_users(); ++u) {
    for (std::size_t v : adjacency_[u]) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

Matrix SocialGraph::AdjacencyMatrix() const {
  Matrix a(num_users(), num_users());
  for (std::size_t u = 0; u < num_users(); ++u) {
    for (std::size_t v : adjacency_[u]) a(u, v) = 1.0;
  }
  return a;
}

CsrMatrix SocialGraph::AdjacencyCsr() const {
  return CsrMatrix::FromSortedLists(num_users(), num_users(), adjacency_);
}

double SocialGraph::Density() const {
  const std::size_t n = num_users();
  if (n < 2) return 0.0;
  const double possible = 0.5 * static_cast<double>(n) *
                          static_cast<double>(n - 1);
  return static_cast<double>(num_edges_) / possible;
}

SocialGraph SocialGraph::WithEdgesRemoved(
    const std::vector<UserPair>& edges) const {
  std::set<UserPair> removed;
  for (const UserPair& e : edges) removed.insert(MakeUserPair(e.u, e.v));
  SocialGraph out(num_users());
  for (std::size_t u = 0; u < num_users(); ++u) {
    for (std::size_t v : adjacency_[u]) {
      if (u < v && removed.find({u, v}) == removed.end()) {
        out.AddEdge(u, v);
      }
    }
  }
  return out;
}

}  // namespace slampred
