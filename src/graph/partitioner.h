// Deterministic graph partitioner — the "cluster" step of the
// hierarchical partitioned solve (DESIGN.md "Hierarchical partitioned
// solve"). Clusters the target social graph by seeded asynchronous
// label propagation, then enforces the min/max cluster-size knobs:
// oversized clusters are split into BFS chunks (max is a hard cap) and
// undersized ones are merged into their most-connected neighbor when
// room allows (min is best-effort).
//
// Determinism: the propagation is serial with a fixed seeded node
// order and a smallest-label tie-break, so the partition depends only
// on (graph, options) — never on the thread count. The fit pipeline's
// determinism contract (bit-identical results at 1/2/7 threads) then
// holds for the partitioned solve exactly as for the monolithic one.

#ifndef SLAMPRED_GRAPH_PARTITIONER_H_
#define SLAMPRED_GRAPH_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/social_graph.h"
#include "util/status.h"

namespace slampred {

/// Whether the fit partitions at all.
enum class PartitionMode : std::uint8_t {
  kNone = 0,  ///< Monolithic solve (the default; bit-exact oracle).
  kAuto = 1,  ///< Label-propagation clusters, per-cluster solves.
};

/// Stable mode name ("none" / "auto").
const char* PartitionModeName(PartitionMode mode);

/// Parses "none" / "auto" (kInvalidArgument otherwise).
Result<PartitionMode> ParsePartitionMode(const std::string& text);

/// Partitioner knobs (part of SlamPredConfig). The label-propagation
/// sweep budget and node-order seed are fixed in graph/partitioner.cc.
struct PartitionOptions {
  PartitionMode mode = PartitionMode::kNone;
  /// Hard cap on cluster size; oversized label-propagation clusters are
  /// split into BFS chunks of at most this many members.
  std::size_t max_cluster_size = 1024;
  /// Best-effort floor: smaller clusters merge into their
  /// most-connected neighbor cluster when that stays under the cap.
  std::size_t min_cluster_size = 8;
};

/// Summary of one partition (and, after a partitioned fit, its
/// per-cluster solve timings).
struct PartitionStats {
  std::size_t num_clusters = 0;
  std::size_t min_cluster = 0;
  std::size_t max_cluster = 0;
  double mean_cluster = 0.0;
  /// Edges whose endpoints land in different clusters / all edges.
  std::size_t cut_edges = 0;
  std::size_t total_edges = 0;
  double cut_edge_fraction = 0.0;
  /// Histogram of cluster sizes in power-of-two buckets: bucket b
  /// counts clusters with size in [2^b, 2^(b+1)).
  std::vector<std::size_t> size_histogram;
  /// Filled by the partitioned solve stage: wall seconds of each
  /// cluster's sub-fit (index = cluster id) and of the boundary
  /// refinement pass.
  std::vector<double> cluster_solve_seconds;
  double refine_seconds = 0.0;

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// A partition of the users [0, n) into disjoint clusters.
struct GraphPartition {
  /// cluster_of[u] = index of the cluster containing user u.
  std::vector<std::uint32_t> cluster_of;
  /// clusters[c] = ascending member list of cluster c. Clusters are
  /// ordered by their smallest member, so ids are deterministic.
  std::vector<std::vector<std::size_t>> clusters;
  /// Graph-level stats (cluster_solve_seconds stays empty here).
  PartitionStats stats;

  std::size_t num_clusters() const { return clusters.size(); }
  std::size_t num_users() const { return cluster_of.size(); }
};

/// Clusters `graph` deterministically under `options` (the mode field
/// is ignored — callers decide whether to partition). kInvalidArgument
/// when max_cluster_size is 0 or min_cluster_size exceeds it.
Result<GraphPartition> PartitionGraph(const SocialGraph& graph,
                                      const PartitionOptions& options);

}  // namespace slampred

#endif  // SLAMPRED_GRAPH_PARTITIONER_H_
