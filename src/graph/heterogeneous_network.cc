#include "graph/heterogeneous_network.h"

#include <algorithm>

#include "util/logging.h"

namespace slampred {

namespace {
const std::vector<std::size_t> kEmptyNeighbors;

// Inserts `value` into the sorted vector if absent; returns true if added.
bool SortedInsert(std::vector<std::size_t>& vec, std::size_t value) {
  auto it = std::lower_bound(vec.begin(), vec.end(), value);
  if (it != vec.end() && *it == value) return false;
  vec.insert(it, value);
  return true;
}
}  // namespace

HeterogeneousNetwork::HeterogeneousNetwork(std::string name)
    : name_(std::move(name)) {}

std::size_t HeterogeneousNetwork::AddNodes(NodeType type, std::size_t count) {
  const std::size_t type_idx = static_cast<std::size_t>(type);
  const std::size_t first = node_counts_[type_idx];
  node_counts_[type_idx] += count;
  // Grow adjacency storage for edge types sourced at this node type.
  for (std::size_t e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType et = static_cast<EdgeType>(e);
    if (EdgeSourceType(et) == type ||
        (et == EdgeType::kFriend && type == NodeType::kUser)) {
      adjacency_[e].resize(node_counts_[static_cast<std::size_t>(
          EdgeSourceType(et))]);
    }
  }
  return first;
}

std::size_t HeterogeneousNetwork::NumNodes(NodeType type) const {
  return node_counts_[static_cast<std::size_t>(type)];
}

Status HeterogeneousNetwork::AddEdge(EdgeType type, std::size_t src,
                                     std::size_t dst) {
  const std::size_t e = static_cast<std::size_t>(type);
  const std::size_t src_count = NumNodes(EdgeSourceType(type));
  const std::size_t dst_count = NumNodes(EdgeDestType(type));
  if (src >= src_count || dst >= dst_count) {
    return Status::OutOfRange("edge endpoint out of range for " +
                              std::string(EdgeTypeName(type)));
  }
  if (type == EdgeType::kFriend) {
    if (src == dst) {
      return Status::InvalidArgument("self friend link rejected");
    }
    adjacency_[e].resize(NumUsers());
    const bool added = SortedInsert(adjacency_[e][src], dst);
    SortedInsert(adjacency_[e][dst], src);
    if (added) ++edge_counts_[e];
    return Status::OK();
  }
  adjacency_[e].resize(src_count);
  if (SortedInsert(adjacency_[e][src], dst)) ++edge_counts_[e];
  return Status::OK();
}

bool HeterogeneousNetwork::HasEdge(EdgeType type, std::size_t src,
                                   std::size_t dst) const {
  const std::size_t e = static_cast<std::size_t>(type);
  if (src >= adjacency_[e].size()) return false;
  const auto& nbrs = adjacency_[e][src];
  return std::binary_search(nbrs.begin(), nbrs.end(), dst);
}

const std::vector<std::size_t>& HeterogeneousNetwork::Neighbors(
    EdgeType type, std::size_t src) const {
  const std::size_t e = static_cast<std::size_t>(type);
  if (src >= adjacency_[e].size()) return kEmptyNeighbors;
  return adjacency_[e][src];
}

std::size_t HeterogeneousNetwork::NumEdges(EdgeType type) const {
  return edge_counts_[static_cast<std::size_t>(type)];
}

std::size_t HeterogeneousNetwork::Degree(EdgeType type,
                                         std::size_t src) const {
  return Neighbors(type, src).size();
}

void HeterogeneousNetwork::ClearFriendEdges() {
  const std::size_t e = static_cast<std::size_t>(EdgeType::kFriend);
  for (auto& nbrs : adjacency_[e]) nbrs.clear();
  edge_counts_[e] = 0;
}

CsrMatrix HeterogeneousNetwork::AdjacencyCsr(EdgeType type) const {
  const std::size_t rows = NumNodes(EdgeSourceType(type));
  const std::size_t cols = NumNodes(EdgeDestType(type));
  // The adjacency store may lag the node count (nodes without edges);
  // the missing rows are empty.
  return CsrMatrix::FromSortedLists(
      rows, cols, adjacency_[static_cast<std::size_t>(type)]);
}

std::string HeterogeneousNetwork::Summary() const {
  std::string out = name_ + ": ";
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    if (t > 0) out += ", ";
    out += std::to_string(node_counts_[t]);
    out += " ";
    out += NodeTypeName(static_cast<NodeType>(t));
  }
  out += " | ";
  for (std::size_t e = 0; e < kNumEdgeTypes; ++e) {
    if (e > 0) out += ", ";
    out += std::to_string(edge_counts_[e]);
    out += " ";
    out += EdgeTypeName(static_cast<EdgeType>(e));
  }
  return out;
}

}  // namespace slampred
