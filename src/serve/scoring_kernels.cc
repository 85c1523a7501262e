#include "serve/scoring_kernels.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "util/thread_pool.h"

namespace slampred {

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFull:
      return "full";
    case ServeTier::kCached:
      return "cached";
    case ServeTier::kDegraded:
      return "degraded";
  }
  return "unknown";
}

Result<std::vector<double>> ScorePairsOnModel(
    const ServableModel& model, const std::vector<UserPair>& pairs) {
  const ScoringSession& session = model.session;
  SLAMPRED_RETURN_NOT_OK(CheckPairsInRange(pairs, session.num_users()));
  std::vector<double> scores(pairs.size());
  ParallelFor(0, pairs.size(), GrainForWork(8),
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  scores[i] = session.ScoreUnchecked(pairs[i].u, pairs[i].v);
                }
              });
  return scores;
}

namespace {

// True iff v is a stored entry of row u of the known-links adjacency.
bool IsKnownLink(const CsrMatrix& known, std::size_t u, std::size_t v) {
  const auto& row_ptr = known.row_ptr();
  const auto& col_idx = known.col_idx();
  const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[u]);
  const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[u + 1]);
  return std::binary_search(begin, end, v);
}

// Walks a precomputed hot row's prefix into `entries`. True when the
// prefix answered the request — k entries collected, or the row is
// complete (every candidate was stored, so a short answer is the real
// answer). False leaves `entries` empty for the fallback path: a
// bounded prefix plus exclusions may not reach k even though the full
// row would.
bool ServeFromHotRow(const ServableModel& model, const HotRow& row,
                     std::size_t u, std::size_t k, bool exclude,
                     std::vector<TopKEntry>* entries) {
  for (const HotRowEntry& entry : row.entries) {
    if (exclude && IsKnownLink(model.known_links, u, entry.v)) continue;
    entries->push_back({static_cast<std::size_t>(entry.v), entry.score});
    if (entries->size() == k) break;
  }
  if (entries->size() == k || row.complete) return true;
  entries->clear();
  return false;
}

}  // namespace

Result<std::vector<TopKEntry>> TopKOnModel(const ServableModel& model,
                                           std::size_t u, std::size_t k,
                                           bool exclude_known_links,
                                           ServeTier* tier_out) {
  if (tier_out != nullptr) *tier_out = ServeTier::kFull;
  const ScoringSession& session = model.session;
  const std::size_t n = session.num_users();
  if (u >= n) {
    return Status::OutOfRange("user " + std::to_string(u) +
                              " outside the served score matrix (" +
                              std::to_string(n) + " users)");
  }
  std::vector<TopKEntry> entries;
  if (k == 0) return entries;
  entries.reserve(std::min(k, n == 0 ? std::size_t{0} : n - 1));

  const bool exclude = exclude_known_links && model.known_links.rows() == n;
  if (const HotRow* hot = model.hot_rows.Find(u)) {
    if (ServeFromHotRow(model, *hot, u, k, exclude, &entries)) {
      model.hot_hits.fetch_add(1, std::memory_order_relaxed);
      if (tier_out != nullptr) *tier_out = ServeTier::kCached;
      return entries;
    }
  }
  const std::shared_ptr<const TopKRowOrder> order = model.topk.Row(session, u);
  for (const std::uint32_t v : *order) {
    if (exclude && IsKnownLink(model.known_links, u, v)) continue;
    entries.push_back({static_cast<std::size_t>(v), session.ScoreUnchecked(u, v)});
    if (entries.size() == k) break;
  }
  return entries;
}

bool CachedTopKOnModel(const ServableModel& model, std::size_t u,
                       std::size_t k, bool exclude_known_links,
                       std::vector<TopKEntry>* entries) {
  const ScoringSession& session = model.session;
  const std::size_t n = session.num_users();
  if (u >= n) return false;
  entries->clear();
  const bool exclude = exclude_known_links && model.known_links.rows() == n;
  if (const HotRow* hot = model.hot_rows.Find(u)) {
    if (k == 0) {
      model.hot_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    entries->reserve(std::min(k, n - 1));
    if (ServeFromHotRow(model, *hot, u, k, exclude, entries)) {
      model.hot_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  const std::shared_ptr<const TopKRowOrder> order = model.topk.Peek(u);
  if (order == nullptr) return false;
  if (k == 0) return true;
  entries->reserve(std::min(k, n - 1));
  for (const std::uint32_t v : *order) {
    if (exclude && IsKnownLink(model.known_links, u, v)) continue;
    entries->push_back(
        {static_cast<std::size_t>(v), session.ScoreUnchecked(u, v)});
    if (entries->size() == k) break;
  }
  return true;
}

Result<std::vector<double>> DegradedScorePairsOnModel(
    const ServableModel& model, const std::vector<UserPair>& pairs) {
  const std::size_t n = model.session.num_users();
  SLAMPRED_RETURN_NOT_OK(CheckPairsInRange(pairs, n));
  std::vector<double> scores(pairs.size(), 0.0);
  const CsrMatrix& known = model.known_links;
  if (known.rows() != n) return scores;  // No adjacency shipped: all 0.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    scores[i] = static_cast<double>(
        known.RowIntersectionCount(pairs[i].u, pairs[i].v));
  }
  return scores;
}

Result<std::vector<TopKEntry>> DegradedTopKOnModel(const ServableModel& model,
                                                   std::size_t u,
                                                   std::size_t k,
                                                   bool exclude_known_links) {
  const std::size_t n = model.session.num_users();
  if (u >= n) {
    return Status::OutOfRange("user " + std::to_string(u) +
                              " outside the served score matrix (" +
                              std::to_string(n) + " users)");
  }
  std::vector<TopKEntry> entries;
  if (k == 0) return entries;
  const CsrMatrix& known = model.known_links;
  if (known.rows() != n) return entries;  // No adjacency: nothing to rank.

  // Count common neighbors of u over the two-hop neighborhood only.
  const auto& row_ptr = known.row_ptr();
  const auto& col_idx = known.col_idx();
  std::unordered_map<std::size_t, std::size_t> counts;
  for (std::size_t e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
    const std::size_t w = col_idx[e];
    for (std::size_t f = row_ptr[w]; f < row_ptr[w + 1]; ++f) {
      const std::size_t v = col_idx[f];
      if (v == u) continue;
      ++counts[v];
    }
  }
  entries.reserve(counts.size());
  for (const auto& [v, count] : counts) {
    if (exclude_known_links && IsKnownLink(known, u, v)) continue;
    entries.push_back({v, static_cast<double>(count)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.v < b.v;  // Deterministic tie-break.
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

}  // namespace slampred
