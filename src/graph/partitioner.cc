#include "graph/partitioner.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <numeric>

#include "util/random.h"

namespace slampred {
namespace {

// Label-propagation sweep budget (each sweep is O(nnz)) and the seed of
// the propagation's node-visit order.
constexpr int kMaxSweeps = 20;
constexpr std::uint64_t kVisitOrderSeed = 17;

// Adopts the most frequent label among `u`'s neighbors; ties break to
// the smallest label so the sweep is a pure function of the labels.
std::size_t DominantNeighborLabel(const SocialGraph& graph,
                                  const std::vector<std::size_t>& labels,
                                  std::size_t u,
                                  std::vector<std::size_t>& scratch) {
  scratch.clear();
  for (const std::size_t v : graph.Neighbors(u)) scratch.push_back(labels[v]);
  std::sort(scratch.begin(), scratch.end());
  std::size_t best = labels[u];
  std::size_t best_count = 0;
  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    // Strict > keeps the smallest label on ties (scratch is ascending).
    if (j - i > best_count) {
      best_count = j - i;
      best = scratch[i];
    }
    i = j;
  }
  return best;
}

// Groups users by label into ascending member lists, iterating labels
// ascending so the grouping is deterministic.
std::vector<std::vector<std::size_t>> GroupByLabel(
    const std::vector<std::size_t>& labels) {
  const std::size_t n = labels.size();
  std::vector<std::vector<std::size_t>> by_label(n);
  for (std::size_t u = 0; u < n; ++u) by_label[labels[u]].push_back(u);
  std::vector<std::vector<std::size_t>> clusters;
  for (auto& members : by_label) {
    if (!members.empty()) clusters.push_back(std::move(members));
  }
  return clusters;
}

// Splits one oversized cluster into BFS chunks of at most `cap`
// members. BFS restarts from the smallest unvisited member, so chunk
// boundaries are deterministic; members inside a chunk stay sorted.
std::vector<std::vector<std::size_t>> SplitByBfs(
    const SocialGraph& graph, const std::vector<std::size_t>& members,
    std::size_t cap) {
  std::vector<bool> in_cluster(graph.num_users(), false);
  for (const std::size_t u : members) in_cluster[u] = true;
  std::vector<bool> visited(graph.num_users(), false);

  std::vector<std::vector<std::size_t>> chunks;
  std::vector<std::size_t> chunk;
  std::deque<std::size_t> queue;
  auto flush = [&]() {
    if (chunk.empty()) return;
    std::sort(chunk.begin(), chunk.end());
    chunks.push_back(std::move(chunk));
    chunk.clear();
  };
  for (const std::size_t seed : members) {
    if (visited[seed]) continue;
    queue.push_back(seed);
    visited[seed] = true;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      chunk.push_back(u);
      if (chunk.size() == cap) flush();
      for (const std::size_t v : graph.Neighbors(u)) {
        if (in_cluster[v] && !visited[v]) {
          visited[v] = true;
          queue.push_back(v);
        }
      }
    }
  }
  flush();
  return chunks;
}

// Merges undersized clusters into their most-connected neighbor
// cluster (ties to the smallest cluster id) when the result stays
// under `cap`. Clusters with no external edges pool together instead.
void MergeUndersized(const SocialGraph& graph,
                     std::vector<std::vector<std::size_t>>& clusters,
                     std::size_t min_size, std::size_t cap) {
  if (min_size <= 1 || clusters.size() <= 1) return;
  std::vector<std::size_t> owner(graph.num_users(), 0);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const std::size_t u : clusters[c]) owner[u] = c;
  }

  // Connected small clusters first: each folds into the neighbor
  // cluster it shares the most edges with, provided there is room.
  std::vector<std::size_t> edge_counts(clusters.size(), 0);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].empty() || clusters[c].size() >= min_size) continue;
    std::fill(edge_counts.begin(), edge_counts.end(), 0);
    for (const std::size_t u : clusters[c]) {
      for (const std::size_t v : graph.Neighbors(u)) {
        if (owner[v] != c) ++edge_counts[owner[v]];
      }
    }
    std::size_t best = c;
    std::size_t best_edges = 0;
    for (std::size_t t = 0; t < clusters.size(); ++t) {
      if (t == c || clusters[t].empty() || edge_counts[t] == 0) continue;
      if (clusters[t].size() + clusters[c].size() > cap) continue;
      if (edge_counts[t] > best_edges) {
        best_edges = edge_counts[t];
        best = t;
      }
    }
    if (best == c) continue;
    for (const std::size_t u : clusters[c]) owner[u] = best;
    clusters[best].insert(clusters[best].end(), clusters[c].begin(),
                          clusters[c].end());
    std::sort(clusters[best].begin(), clusters[best].end());
    clusters[c].clear();
  }

  // Isolated leftovers (no room anywhere connected, or no external
  // edges at all — e.g. degree-0 users): pool them into shared
  // clusters of at most `cap` members so the cluster count stays
  // bounded. A solve over an unconnected pool is still well-defined.
  std::vector<std::size_t> pool;
  for (auto& members : clusters) {
    if (members.empty() || members.size() >= min_size) continue;
    bool connected = false;
    for (const std::size_t u : members) {
      for (const std::size_t v : graph.Neighbors(u)) {
        if (owner[v] != owner[u]) {
          connected = true;
          break;
        }
      }
      if (connected) break;
    }
    if (connected) continue;
    pool.insert(pool.end(), members.begin(), members.end());
    members.clear();
  }
  std::sort(pool.begin(), pool.end());
  for (std::size_t i = 0; i < pool.size(); i += cap) {
    const std::size_t end = std::min(pool.size(), i + cap);
    clusters.emplace_back(pool.begin() + static_cast<std::ptrdiff_t>(i),
                          pool.begin() + static_cast<std::ptrdiff_t>(end));
  }

  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [](const std::vector<std::size_t>& members) {
                                  return members.empty();
                                }),
                 clusters.end());
}

}  // namespace

const char* PartitionModeName(PartitionMode mode) {
  return mode == PartitionMode::kAuto ? "auto" : "none";
}

Result<PartitionMode> ParsePartitionMode(const std::string& text) {
  if (text == "none") return PartitionMode::kNone;
  if (text == "auto") return PartitionMode::kAuto;
  return Status::InvalidArgument("unknown partition mode '" + text +
                                 "' (expected none|auto)");
}

std::string PartitionStats::ToString() const {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "%zu cluster(s) | sizes %zu-%zu (mean %.1f) | cut edges "
                "%zu/%zu (%.1f%%)",
                num_clusters, min_cluster, max_cluster, mean_cluster,
                cut_edges, total_edges, 100.0 * cut_edge_fraction);
  return buffer;
}

Result<GraphPartition> PartitionGraph(const SocialGraph& graph,
                                      const PartitionOptions& options) {
  if (options.max_cluster_size == 0) {
    return Status::InvalidArgument("max_cluster_size must be positive");
  }
  if (options.min_cluster_size > options.max_cluster_size) {
    return Status::InvalidArgument(
        "min_cluster_size " + std::to_string(options.min_cluster_size) +
        " exceeds max_cluster_size " +
        std::to_string(options.max_cluster_size));
  }
  const std::size_t n = graph.num_users();
  GraphPartition partition;
  partition.cluster_of.assign(n, 0);
  if (n == 0) return partition;

  // Asynchronous label propagation over a seeded node order. The sweep
  // is serial (the whole partitioner is O(iterations · nnz)) so the
  // outcome never depends on the thread count.
  std::vector<std::size_t> labels(n);
  std::iota(labels.begin(), labels.end(), 0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(kVisitOrderSeed);
  rng.Shuffle(order);
  std::vector<std::size_t> scratch;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool changed = false;
    for (const std::size_t u : order) {
      const std::size_t best = DominantNeighborLabel(graph, labels, u, scratch);
      if (best != labels[u]) {
        labels[u] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Size enforcement: split over the hard cap, then merge best-effort
  // under the floor (merges respect the cap, so splitting first).
  std::vector<std::vector<std::size_t>> clusters = GroupByLabel(labels);
  std::vector<std::vector<std::size_t>> capped;
  for (auto& members : clusters) {
    if (members.size() <= options.max_cluster_size) {
      capped.push_back(std::move(members));
      continue;
    }
    for (auto& chunk :
         SplitByBfs(graph, members, options.max_cluster_size)) {
      capped.push_back(std::move(chunk));
    }
  }
  MergeUndersized(graph, capped, options.min_cluster_size,
                  options.max_cluster_size);

  // Renumber clusters by smallest member so ids are deterministic.
  std::sort(capped.begin(), capped.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  partition.clusters = std::move(capped);
  for (std::size_t c = 0; c < partition.clusters.size(); ++c) {
    for (const std::size_t u : partition.clusters[c]) {
      partition.cluster_of[u] = static_cast<std::uint32_t>(c);
    }
  }

  PartitionStats& stats = partition.stats;
  stats.num_clusters = partition.clusters.size();
  stats.min_cluster = n;
  for (const auto& members : partition.clusters) {
    stats.min_cluster = std::min(stats.min_cluster, members.size());
    stats.max_cluster = std::max(stats.max_cluster, members.size());
    std::size_t bucket = 0;
    while ((std::size_t{2} << bucket) <= members.size()) ++bucket;
    if (stats.size_histogram.size() <= bucket) {
      stats.size_histogram.resize(bucket + 1, 0);
    }
    ++stats.size_histogram[bucket];
  }
  stats.mean_cluster = stats.num_clusters == 0
                           ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(stats.num_clusters);
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::size_t v : graph.Neighbors(u)) {
      if (v <= u) continue;
      ++stats.total_edges;
      if (partition.cluster_of[u] != partition.cluster_of[v]) {
        ++stats.cut_edges;
      }
    }
  }
  stats.cut_edge_fraction =
      stats.total_edges == 0
          ? 0.0
          : static_cast<double>(stats.cut_edges) /
                static_cast<double>(stats.total_edges);
  return partition;
}

}  // namespace slampred
