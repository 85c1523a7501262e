#include "serve/load_generator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

using Clock = std::chrono::steady_clock;

// Per-caller counters merged after the run (no contention while hot).
struct Tally {
  std::size_t score_requests = 0;
  std::size_t topk_requests = 0;
  std::size_t errors = 0;
  LoadErrorBreakdown breakdown;
  ServeTierCounts tiers;
  std::size_t invariant_violations = 0;
  std::vector<double> latencies_ms;

  void MergeCountsFrom(const Tally& other) {
    score_requests += other.score_requests;
    topk_requests += other.topk_requests;
    errors += other.errors;
    breakdown.deadline_exceeded += other.breakdown.deadline_exceeded;
    breakdown.shed += other.breakdown.shed;
    breakdown.io += other.breakdown.io;
    breakdown.numerical += other.breakdown.numerical;
    breakdown.unavailable += other.breakdown.unavailable;
    breakdown.other += other.breakdown.other;
    tiers.full += other.tiers.full;
    tiers.cached += other.tiers.cached;
    tiers.degraded += other.tiers.degraded;
    invariant_violations += other.invariant_violations;
  }
};

void ClassifyError(const Status& status, Tally& tally) {
  ++tally.errors;
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      ++tally.breakdown.deadline_exceeded;
      break;
    case StatusCode::kResourceExhausted:
      ++tally.breakdown.shed;
      break;
    case StatusCode::kIoError:
      ++tally.breakdown.io;
      break;
    case StatusCode::kNumericalError:
      ++tally.breakdown.numerical;
      break;
    case StatusCode::kUnavailable:
      ++tally.breakdown.unavailable;
      break;
    default:
      ++tally.breakdown.other;
      break;
  }
}

void CountTier(ServeTier tier, Tally& tally) {
  switch (tier) {
    case ServeTier::kFull:
      ++tally.tiers.full;
      break;
    case ServeTier::kCached:
      ++tally.tiers.cached;
      break;
    case ServeTier::kDegraded:
      ++tally.tiers.degraded;
      break;
  }
}

// Issues the request_index-th request of one deterministic stream and
// records its outcome — error taxonomy, response tier, and (when
// verify_session is set) a full-tier bit-exactness check against the
// initially published model, whichever backend it serves from.
void IssueRequest(ScoringService& service, std::size_t num_users,
                  const LoadGeneratorOptions& options,
                  const ScoringSession* verify_session, Rng& rng,
                  std::size_t request_index, Tally& tally) {
  RequestOptions request;
  if (options.deadline_ms > 0.0) {
    request.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               options.deadline_ms));
  }
  if (options.topk_every > 0 &&
      request_index % options.topk_every == options.topk_every - 1) {
    ++tally.topk_requests;
    const std::size_t u = static_cast<std::size_t>(
        rng.NextBounded(num_users));
    auto result = service.TopK(u, options.top_k, true, request);
    if (!result.ok()) {
      ClassifyError(result.status(), tally);
      return;
    }
    CountTier(result.value().tier, tally);
    if (verify_session != nullptr &&
        result.value().tier == ServeTier::kFull) {
      // Full-tier invariant: every entry's score is the served model's
      // value and the list is non-increasing.
      double prev = std::numeric_limits<double>::infinity();
      for (const TopKEntry& entry : result.value().entries) {
        if (entry.v >= num_users ||
            entry.score != verify_session->ScoreUnchecked(u, entry.v) ||
            entry.score > prev) {
          ++tally.invariant_violations;
          break;
        }
        prev = entry.score;
      }
    }
    return;
  }
  ++tally.score_requests;
  std::vector<UserPair> pairs(std::max<std::size_t>(
      options.pairs_per_request, 1));
  for (UserPair& pair : pairs) {
    pair.u = static_cast<std::size_t>(rng.NextBounded(num_users));
    pair.v = static_cast<std::size_t>(rng.NextBounded(num_users));
  }
  auto result = service.ScorePairs(pairs, request);
  if (!result.ok()) {
    ClassifyError(result.status(), tally);
    return;
  }
  CountTier(result.value().tier, tally);
  if (verify_session != nullptr && result.value().tier == ServeTier::kFull) {
    const std::vector<double>& scores = result.value().scores;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i >= scores.size() ||
          scores[i] !=
              verify_session->ScoreUnchecked(pairs[i].u, pairs[i].v)) {
        ++tally.invariant_violations;
        break;
      }
    }
  }
}

// Arms the chaos fault schedule: a sustained-but-bounded stream of swap
// and artifact-read failures plus one consecutive serve.batch fault
// window sized to trip the dispatch breaker. All cadences are
// deterministic hit counts, so two chaos runs with the same workload
// shape inject the same fault sequence; every site runs dry before a
// typical run ends, letting the CI leg assert recovery (final_version
// advancing again after the faults stop).
void ArmChaosFaults() {
  FaultInjector& injector = FaultInjector::Instance();
  FaultSpec swap_spec;
  swap_spec.kind = FaultKind::kFailIo;
  swap_spec.every_n = 2;  // Every other swap fails...
  swap_spec.max_triggers = 6;  // ...for the first dozen swaps.
  injector.Arm("serve.swap", swap_spec);

  FaultSpec read_spec;
  read_spec.kind = FaultKind::kFailIo;
  read_spec.every_n = 3;  // Absorbed by the SwapFromFile retry budget.
  read_spec.max_triggers = 4;
  injector.Arm("artifact.read", read_spec);

  FaultSpec batch_spec;
  batch_spec.kind = FaultKind::kFailNumerical;
  batch_spec.trigger_after = 25;  // Let the run warm up first.
  batch_spec.max_triggers = 4;    // 3 consecutive trip the breaker; the
                                  // 4th fails the first half-open probe.
  injector.Arm("serve.batch", batch_spec);
}

void DisarmChaosFaults() {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Disarm("serve.swap");
  injector.Disarm("artifact.read");
  injector.Disarm("serve.batch");
}

double MillisecondsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double PercentileMs(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_ms.size());
  std::size_t index = static_cast<std::size_t>(std::ceil(rank));
  index = index == 0 ? 0 : index - 1;
  return sorted_ms[std::min(index, sorted_ms.size() - 1)];
}

void AppendJsonNumber(std::string& out, const char* key, double value,
                      bool* first) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += buffer;
}

void AppendJsonSize(std::string& out, const char* key, std::uint64_t value,
                    bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string LoadGeneratorReport::ToJson() const {
  std::string out = "{";
  bool first = true;
  out += "\"mode\":\"" + mode + "\"";
  first = false;
  AppendJsonSize(out, "concurrency", concurrency, &first);
  AppendJsonSize(out, "requests", requests, &first);
  AppendJsonSize(out, "score_requests", score_requests, &first);
  AppendJsonSize(out, "topk_requests", topk_requests, &first);
  AppendJsonSize(out, "errors", errors, &first);
  out += ",\"error_breakdown\":{";
  first = true;
  AppendJsonSize(out, "deadline_exceeded", error_breakdown.deadline_exceeded,
                 &first);
  AppendJsonSize(out, "shed", error_breakdown.shed, &first);
  AppendJsonSize(out, "io", error_breakdown.io, &first);
  AppendJsonSize(out, "numerical", error_breakdown.numerical, &first);
  AppendJsonSize(out, "unavailable", error_breakdown.unavailable, &first);
  AppendJsonSize(out, "other", error_breakdown.other, &first);
  out += "}";
  out += ",\"tiers\":{";
  first = true;
  AppendJsonSize(out, "full", tiers.full, &first);
  AppendJsonSize(out, "cached", tiers.cached, &first);
  AppendJsonSize(out, "degraded", tiers.degraded, &first);
  out += "}";
  first = false;
  AppendJsonSize(out, "invariant_violations", invariant_violations, &first);
  AppendJsonSize(out, "swaps", swaps, &first);
  AppendJsonSize(out, "final_version", final_version, &first);
  AppendJsonSize(out, "artifact_bytes", artifact_bytes, &first);
  AppendJsonSize(out, "float_equiv_bytes", float_equiv_bytes, &first);
  AppendJsonSize(out, "hot_rows", hot_rows, &first);
  AppendJsonSize(out, "hot_hits", hot_hits, &first);
  AppendJsonNumber(out, "cache_hit_rate", cache_hit_rate, &first);
  AppendJsonNumber(out, "auc", auc, &first);
  out += ",\"recovery\":{";
  first = true;
  AppendJsonSize(out, "swap_failures",
                 static_cast<std::uint64_t>(recovery.swap_failures), &first);
  AppendJsonSize(out, "batch_failures",
                 static_cast<std::uint64_t>(recovery.batch_failures), &first);
  AppendJsonSize(out, "shed", static_cast<std::uint64_t>(recovery.shed),
                 &first);
  AppendJsonSize(out, "deadline_exceeded",
                 static_cast<std::uint64_t>(recovery.deadline_exceeded),
                 &first);
  AppendJsonSize(out, "breaker_trips",
                 static_cast<std::uint64_t>(recovery.breaker_trips), &first);
  AppendJsonSize(out, "degraded_responses",
                 static_cast<std::uint64_t>(recovery.degraded_responses),
                 &first);
  AppendJsonSize(out, "artifact_rollbacks",
                 static_cast<std::uint64_t>(recovery.artifact_rollbacks),
                 &first);
  out += "}";
  first = false;
  AppendJsonNumber(out, "duration_seconds", duration_seconds, &first);
  AppendJsonNumber(out, "throughput_rps", throughput_rps, &first);
  out += ",\"latency_ms\":{";
  first = true;
  AppendJsonNumber(out, "p50", latency.p50_ms, &first);
  AppendJsonNumber(out, "p95", latency.p95_ms, &first);
  AppendJsonNumber(out, "p99", latency.p99_ms, &first);
  AppendJsonNumber(out, "max", latency.max_ms, &first);
  out += "}}";
  return out;
}

std::string LoadGeneratorReport::ToString() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "serve-load: %s loop, %zu caller(s)\n"
      "  %zu requests (%zu score, %zu topk), %zu error(s), %llu swap(s), "
      "final version %llu\n"
      "  %.0f req/sec over %.2f s; latency ms p50 %.3f  p95 %.3f  "
      "p99 %.3f  max %.3f",
      mode.c_str(), concurrency, requests,
      score_requests, topk_requests, errors,
      static_cast<unsigned long long>(swaps),
      static_cast<unsigned long long>(final_version), throughput_rps,
      duration_seconds, latency.p50_ms, latency.p95_ms, latency.p99_ms,
      latency.max_ms);
  std::string out = buffer;
  if (errors > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  errors: deadline %zu  shed %zu  io %zu  "
                  "numerical %zu  unavailable %zu  other %zu",
                  error_breakdown.deadline_exceeded, error_breakdown.shed,
                  error_breakdown.io, error_breakdown.numerical,
                  error_breakdown.unavailable, error_breakdown.other);
    out += buffer;
  }
  if (tiers.cached > 0 || tiers.degraded > 0 || invariant_violations > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  tiers: full %zu  cached %zu  degraded %zu; "
                  "invariant violations %zu",
                  tiers.full, tiers.cached, tiers.degraded,
                  invariant_violations);
    out += buffer;
  }
  if (hot_rows > 0 || auc >= 0.0 || artifact_bytes > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  artifact %llu bytes (float equiv %llu); hot rows "
                  "%zu, hot hits %llu, cache hit rate %.3f",
                  static_cast<unsigned long long>(artifact_bytes),
                  static_cast<unsigned long long>(float_equiv_bytes),
                  hot_rows, static_cast<unsigned long long>(hot_hits),
                  cache_hit_rate);
    out += buffer;
    if (auc >= 0.0) {
      std::snprintf(buffer, sizeof(buffer), "; sampled AUC %.4f", auc);
      out += buffer;
    }
  }
  if (recovery.Total() > 0) {
    out += "\n  " + recovery.ToString();
  }
  return out;
}

Result<LoadGeneratorReport> RunLoadGenerator(
    ModelRegistry& registry, ScoringService& service,
    const LoadGeneratorOptions& options) {
  const std::shared_ptr<const ServableModel> initial = registry.Acquire();
  if (initial == nullptr) {
    return Status::FailedPrecondition(
        "load generator needs a published model; Swap one in first");
  }
  const std::size_t num_users = initial->num_users();
  // The run length and the per-request deadline both become a
  // Clock::duration, whose nanosecond count overflows past ~9.2e9 s;
  // the arrival cap bounds both well inside that.
  const double max_span = static_cast<double>(kMaxParsedCount);
  if (!(options.duration_seconds > 0.0 &&
        options.duration_seconds <= max_span)) {
    return Status::InvalidArgument(
        "duration must be in (0, " + std::to_string(kMaxParsedCount) +
        "] seconds, got " + std::to_string(options.duration_seconds));
  }
  if (!(options.deadline_ms <= max_span)) {
    return Status::InvalidArgument(
        "deadline must be at most " + std::to_string(kMaxParsedCount) +
        " ms, got " + std::to_string(options.deadline_ms));
  }
  if (options.concurrency > kMaxThreads) {
    return Status::InvalidArgument(
        "concurrency " + std::to_string(options.concurrency) + " exceeds " +
        std::to_string(kMaxThreads) + " threads");
  }
  const std::size_t concurrency = std::max<std::size_t>(
      options.concurrency, 1);
  const double rate = std::max(options.open_rate_rps, 1.0);
  if (options.mode == LoadGeneratorOptions::Mode::kOpen &&
      !(options.duration_seconds * rate <=
        static_cast<double>(kMaxParsedCount))) {
    return Status::InvalidArgument(
        "open-loop schedule of " + std::to_string(options.open_rate_rps) +
        " req/s for " + std::to_string(options.duration_seconds) +
        " s exceeds " + std::to_string(kMaxParsedCount) + " arrivals");
  }

  // Full-tier verification reference: the swapper only ever republishes
  // the initially published artifact (in memory or from swap_path), so
  // every version serves the same scores and a full-tier response must
  // bit-match the initial session regardless of which version answered.
  const bool verify = options.verify || options.chaos;
  const ScoringSession* verify_session = verify ? &initial->session : nullptr;

  if (options.chaos) ArmChaosFaults();

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_seconds));

  // Optional hot-swapper: republishes the initial artifact as a fresh
  // (re-validated, re-checksummed) version on a fixed cadence.
  std::atomic<bool> stop_swapper{false};
  std::uint64_t swaps = 0;
  std::thread swapper;
  if (options.swap_every_seconds > 0.0) {
    const ModelArtifact artifact = initial->session.artifact();
    swapper = std::thread([&registry, &stop_swapper, &swaps, artifact,
                           path = options.swap_path,
                           interval = options.swap_every_seconds] {
      auto next = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(interval));
      while (!stop_swapper.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (Clock::now() < next) continue;
        const Status swapped = path.empty()
                                   ? registry.Swap(ModelArtifact(artifact))
                                   : registry.SwapFromFile(path);
        if (swapped.ok()) ++swaps;
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(interval));
      }
    });
  }

  // `concurrency` threads, each with its own tally: closed-loop callers
  // or open-loop connections.
  std::vector<Tally> tallies(concurrency);
  std::atomic<std::size_t> next_arrival{0};
  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  for (std::size_t t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = tallies[t];
      if (options.mode == LoadGeneratorOptions::Mode::kClosed) {
        // Closed loop: back-to-back requests from a per-caller stream.
        Rng rng(options.seed + 0x9e3779b9u * (t + 1));
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
          const auto issued = Clock::now();
          IssueRequest(service, num_users, options, verify_session, rng, i,
                       tally);
          tally.latencies_ms.push_back(MillisecondsSince(issued));
        }
        return;
      }
      // Open loop: arrival i is due at start + i/rate, computed per
      // arrival so no rate rounds the spacing to zero. A connection
      // takes the next arrival index, waits until it is due and issues
      // it with its own seed; latency runs from the scheduled arrival,
      // so queueing delay under overload is visible, and requests in
      // flight are bounded by the connections.
      for (;;) {
        const std::size_t i =
            next_arrival.fetch_add(1, std::memory_order_relaxed);
        const double offset = static_cast<double>(i) / rate;
        if (!(offset < options.duration_seconds)) break;
        const auto arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset));
        std::this_thread::sleep_until(arrival);
        Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
        IssueRequest(service, num_users, options, verify_session, rng, i,
                     tally);
        tally.latencies_ms.push_back(MillisecondsSince(arrival));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  if (swapper.joinable()) {
    stop_swapper.store(true, std::memory_order_relaxed);
    swapper.join();
  }
  if (options.chaos) DisarmChaosFaults();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  LoadGeneratorReport report;
  report.mode = options.mode == LoadGeneratorOptions::Mode::kClosed
                    ? "closed"
                    : "open";
  report.concurrency = concurrency;
  report.swaps = swaps;
  report.final_version = registry.current_version();
  report.duration_seconds = elapsed;

  std::vector<double> latencies;
  Tally merged;
  for (const Tally& tally : tallies) {
    merged.MergeCountsFrom(tally);
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  report.score_requests = merged.score_requests;
  report.topk_requests = merged.topk_requests;
  report.errors = merged.errors;
  report.error_breakdown = merged.breakdown;
  report.tiers = merged.tiers;
  report.invariant_violations = merged.invariant_violations;
  report.recovery = registry.recovery();
  if (const auto final_model = registry.Acquire()) {
    report.hot_rows = final_model->hot_rows.size();
    report.hot_hits =
        final_model->hot_hits.load(std::memory_order_relaxed);
  }
  report.cache_hit_rate =
      merged.topk_requests > 0
          ? static_cast<double>(merged.tiers.cached) /
                static_cast<double>(merged.topk_requests)
          : 0.0;
  report.requests = report.score_requests + report.topk_requests;
  report.throughput_rps =
      elapsed > 0.0 ? static_cast<double>(report.requests) / elapsed : 0.0;
  std::sort(latencies.begin(), latencies.end());
  report.latency.p50_ms = PercentileMs(latencies, 0.50);
  report.latency.p95_ms = PercentileMs(latencies, 0.95);
  report.latency.p99_ms = PercentileMs(latencies, 0.99);
  report.latency.max_ms = latencies.empty() ? 0.0 : latencies.back();
  return report;
}

}  // namespace slampred
