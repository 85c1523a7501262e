// Helpers of the SLAMPRED end-to-end benchmark that sit outside the
// scoring path: the percentile rule, seeded traffic (Zipf popularity,
// request streams), the open-loop phase summary (latency from the due
// time, lateness, backlog), the max-rate ladder search, and in-memory
// spans with self-time accounting. perfbench_test checks them.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// Samples that must lie strictly beyond a percentile before it is
/// reported (a p99 needs at least 1000 samples).
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`, or nullopt when
/// fewer than kMinBeyond samples lie beyond it.
inline std::optional<double> Percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (n - 1 - index < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Seeded randomness.

/// Zipf(s) popularity over `n` users: rank r (1-based) is drawn with
/// probability ∝ r^-s, and ranks map to user ids through a permutation
/// seeded by `seed`, so popular users are scattered over the id space.
class ZipfUsers {
 public:
  ZipfUsers(std::size_t n, double s, std::uint64_t seed) : user_of_rank_(n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      total += std::pow(static_cast<double>(r), -s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t i = 0; i < n; ++i) {
      user_of_rank_[i] = static_cast<std::uint32_t>(i);
    }
    slampred::Rng rng(seed);
    rng.Shuffle(user_of_rank_);
  }

  /// One user draw.
  std::uint32_t Draw(slampred::Rng& rng) const {
    const double x = rng.NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
    if (it == cdf_.end()) --it;
    return user_of_rank_[static_cast<std::size_t>(it - cdf_.begin())];
  }

  /// The `count` most popular users, most popular first.
  std::vector<std::uint32_t> MostPopular(std::size_t count) const {
    count = std::min(count, user_of_rank_.size());
    return {user_of_rank_.begin(),
            user_of_rank_.begin() + static_cast<std::ptrdiff_t>(count)};
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> user_of_rank_;
};

/// Shape of a serving workload's traffic.
struct TrafficSpec {
  std::size_t num_users = 0;
  /// Share of requests that are TopK; the rest are ScorePairs.
  double topk_share = 0.0;
  std::size_t k = 10;
  std::size_t pairs_per_request = 64;
  /// Zipf exponent of user popularity; 0 = uniform users.
  double zipf_s = 0.0;
};

/// One request of a stream: a TopK for `u`, or a ScorePairs over `pairs`.
struct TrafficRequest {
  bool topk = false;
  std::uint32_t u = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
};

/// Draws `count` requests of `spec` deterministically from `seed`. The
/// popularity permutation is seeded separately by `popularity_seed` so
/// every phase of a run shares one set of popular users.
inline std::vector<TrafficRequest> MakeRequestStream(
    const TrafficSpec& spec, std::size_t count, std::uint64_t seed,
    std::uint64_t popularity_seed) {
  std::vector<TrafficRequest> stream(count);
  if (spec.num_users < 2) return stream;
  slampred::Rng rng(seed);
  std::optional<ZipfUsers> zipf;
  if (spec.zipf_s > 0.0) zipf.emplace(spec.num_users, spec.zipf_s, popularity_seed);
  const auto user = [&]() -> std::uint32_t {
    return zipf ? zipf->Draw(rng)
                : static_cast<std::uint32_t>(rng.NextBounded(spec.num_users));
  };
  for (TrafficRequest& request : stream) {
    request.topk = rng.NextDouble() < spec.topk_share;
    if (request.topk) {
      request.u = user();
      continue;
    }
    request.pairs.reserve(spec.pairs_per_request);
    while (request.pairs.size() < spec.pairs_per_request) {
      const std::uint32_t u = user();
      const std::uint32_t v = user();
      if (u != v) request.pairs.emplace_back(u, v);
    }
  }
  return stream;
}

// ---------------------------------------------------------------------------
// Open-loop phases.

/// What happened to one scheduled request; times are seconds from the
/// phase start. `release` is when the generator released the request
/// (its due time, or later when the generator itself was held up); 0
/// means at its due time. A request never sent (the phase ran out of
/// time) keeps sent = false.
struct RequestRecord {
  double due = 0.0;
  double release = 0.0;
  double send = 0.0;
  double done = 0.0;
  bool sent = false;
  bool ok = false;
};

/// Due time of request `i` under a fixed-rate schedule.
inline double DueTime(std::size_t i, double rate_rps) {
  return static_cast<double>(i) / rate_rps;
}

/// Summary of one open-loop phase. Latency is timed from each request's
/// release, so a server stall also charges the wait it imposes on later
/// requests, while a stall of the generator's own thread does not;
/// lateness is how late each request was sent after its due time.
struct PhaseSummary {
  std::size_t scheduled = 0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  ///< Sent and answered with an error.
  std::size_t missed = 0;  ///< Never sent before the phase gave up.
  std::optional<double> p50_ms;
  /// Tail percentiles count failed and missed requests as infinitely
  /// slow: they miss any latency limit.
  std::optional<double> p90_ms;
  std::optional<double> p99_ms;
  /// The median over consecutive windows of the schedule (each `window`
  /// requests; a last partial window joins the one before it) of each
  /// window's p50 and p90. A host that stalls the whole process for
  /// stretches of a run inflates the windows it hits, not the median one
  /// while they are fewer than half; a program that gets slower moves
  /// every window.
  std::optional<double> median_window_p50_ms;
  std::optional<double> median_window_p90_ms;
  std::size_t windows = 0;
  std::optional<double> lateness_p99_ms;
  double lateness_max_ms = 0.0;
  /// Largest lateness among the last tenth of the schedule: a backlog
  /// that grows through the phase shows here.
  double tail_lateness_max_ms = 0.0;
  double wall_s = 0.0;
  std::vector<double> latencies_ms;  ///< Of the ok requests, in order.
};

inline PhaseSummary SummarizePhase(const std::vector<RequestRecord>& records,
                                   double wall_s, std::size_t window = 500) {
  PhaseSummary summary;
  summary.scheduled = records.size();
  summary.wall_s = wall_s;
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  std::vector<double> by_index(records.size(), kMissed);
  std::vector<double> lateness;
  const std::size_t tail_begin = records.size() - records.size() / 10;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    if (!r.sent) {
      ++summary.missed;
      continue;
    }
    ++summary.sent;
    const double late_ms = std::max(0.0, r.send - r.due) * 1e3;
    lateness.push_back(late_ms);
    summary.lateness_max_ms = std::max(summary.lateness_max_ms, late_ms);
    if (i >= tail_begin) {
      summary.tail_lateness_max_ms =
          std::max(summary.tail_lateness_max_ms, late_ms);
    }
    if (!r.ok) {
      ++summary.failed;
      continue;
    }
    ++summary.ok;
    by_index[i] = (r.done - std::max(r.due, r.release)) * 1e3;
    summary.latencies_ms.push_back(by_index[i]);
  }
  summary.p50_ms = Percentile(summary.latencies_ms, 0.50);
  summary.lateness_p99_ms = Percentile(lateness, 0.99);
  summary.p90_ms = Percentile(by_index, 0.90);
  summary.p99_ms = Percentile(by_index, 0.99);
  summary.windows = window == 0 ? 0 : records.size() / window;
  std::vector<double> window_p50s;
  std::vector<double> window_p90s;
  for (std::size_t w = 0; w < summary.windows; ++w) {
    const auto begin =
        by_index.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == summary.windows
                         ? by_index.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    const std::vector<double> slice(begin, end);
    const std::optional<double> p50 = Percentile(slice, 0.50);
    const std::optional<double> p90 = Percentile(slice, 0.90);
    if (p50) window_p50s.push_back(*p50);
    if (p90) window_p90s.push_back(*p90);
  }
  if (!window_p50s.empty()) summary.median_window_p50_ms = Median(window_p50s);
  if (!window_p90s.empty()) summary.median_window_p90_ms = Median(window_p90s);
  return summary;
}

/// True when a phase meets the latency limit without a growing backlog:
/// p90 (failures and misses counted as infinite) within `limit_ms`, and
/// the generator no later than the limit over the final tenth.
inline bool MeetsLimit(const PhaseSummary& summary, double limit_ms) {
  return summary.p90_ms.has_value() && *summary.p90_ms <= limit_ms &&
         summary.tail_lateness_max_ms <= limit_ms;
}

// ---------------------------------------------------------------------------
// Max-rate ladder.

/// A fixed geometric ladder of offered rates: rung i is base · ratio^i.
struct RateLadder {
  double base_rps = 500.0;
  double ratio = 1.1;
  int rungs = 40;

  double Rate(int rung) const { return base_rps * std::pow(ratio, rung); }

  /// Highest rung whose rate is at most `rps` (0 when below the base).
  int RungAtOrBelow(double rps) const {
    int rung = 0;
    while (rung + 1 < rungs && Rate(rung + 1) <= rps * (1.0 + 1e-12)) ++rung;
    return rung;
  }
};

/// Result of a ladder search.
struct LadderResult {
  int best_rung = -1;  ///< Highest passing rung found; -1 when none.
  int probes = 0;
};

/// Finds the highest rung that passes `probe`, assuming a rung passes
/// whenever a higher one does. Starts at `start`, gallops up (or down)
/// until the outcome flips, then bisects; never probes more than
/// `max_probes` rungs and returns the best rung proven so far.
inline LadderResult SearchLadder(const RateLadder& ladder, int start,
                                 int max_probes,
                                 const std::function<bool(int)>& probe) {
  LadderResult result;
  const auto run = [&](int rung) {
    ++result.probes;
    return probe(rung);
  };
  int lo = -1;             // Highest rung known to pass.
  int hi = ladder.rungs;   // Lowest rung known to fail.
  start = std::clamp(start, 0, ladder.rungs - 1);
  if (run(start)) {
    lo = start;
    for (int step = 1; lo + 1 < hi && result.probes < max_probes; step *= 2) {
      const int next = std::min(lo + step, hi - 1);
      if (run(next)) {
        lo = next;
      } else {
        hi = next;
        break;
      }
    }
  } else {
    hi = start;
    for (int step = 1; lo + 1 < hi && result.probes < max_probes; step *= 2) {
      const int next = std::max(hi - step, 0);
      if (run(next)) {
        lo = next;
        break;
      }
      hi = next;
    }
  }
  while (lo + 1 < hi && result.probes < max_probes) {
    const int mid = lo + (hi - lo) / 2;
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.best_rung = lo;
  return result;
}

// ---------------------------------------------------------------------------
// Spans.

/// One timed interval at a layer boundary. `parent` is the id of the
/// enclosing span (0 = root); every span of one request carries the
/// request's id (0 outside request handling). Times are nanoseconds on
/// the steady clock.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";  ///< Static string.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over a span set.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  /// Duration minus the part of the interval its child spans cover.
  double self_s = 0.0;
};

/// Self time of every span, summed per name. Children are clipped to
/// their parent's interval and overlapping children are counted once.
inline std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = span.start_ns;
      for (const auto& [begin, end] : intervals) {
        const std::int64_t b = std::max(begin, cursor);
        const std::int64_t e = std::min(end, span.end_ns);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
    }
    SpanTotals& t = totals[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
