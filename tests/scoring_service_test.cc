// Deterministic concurrency harness for the serving layer: N caller
// threads issue interleaved Score / ScorePairs / TopK against one
// ModelRegistry while the suite bit-compares every response against the
// serial ScoringSession oracle — at 1/4/7 pool threads, and during
// artifact hot-swap (every response must match exactly one artifact
// version, never a torn mix). Also covers the serve.swap / serve.batch
// fault-injection sites and version draining.
//
// The overload suite at the bottom drives the robustness features:
// per-request deadlines, bounded admission with both shed policies,
// exact counter accounting under 6-thread overload, and the
// batch-dispatch circuit breaker's trip → degraded-tier → half-open →
// recovery cycle on a fake clock.

#include "core/scoring_service.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "serve/load_generator.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "score_forms.h"

namespace slampred {
namespace {

// A recognizable, version-taggable score surface: f(u, v) + offset.
double ScoreValue(std::size_t u, std::size_t v, double offset) {
  return 0.25 * static_cast<double>(u) -
         0.125 * static_cast<double>(v) +
         static_cast<double>((u * 31 + v * 17) % 97) + offset;
}

ModelArtifact MakeArtifact(std::size_t n, double offset) {
  Matrix s(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) s(u, v) = ScoreValue(u, v, offset);
  }
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(std::move(s));
  return artifact;
}

// The serial oracle the concurrent service is bit-compared against.
ScoringSession MakeOracle(const ModelArtifact& artifact) {
  auto session = ScoringSession::FromArtifact(ModelArtifact(artifact));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

// Reference top-K: full sort, descending score, ascending v on ties.
std::vector<TopKEntry> ReferenceTopK(const Matrix& s, std::size_t u,
                                     std::size_t k) {
  std::vector<TopKEntry> all;
  for (std::size_t v = 0; v < s.cols(); ++v) {
    if (v != u) all.push_back({v, s(u, v)});
  }
  std::sort(all.begin(), all.end(), [](const TopKEntry& a,
                                       const TopKEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.v < b.v;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<UserPair> DeterministicPairs(Rng& rng, std::size_t n,
                                         std::size_t count) {
  std::vector<UserPair> pairs(count);
  for (UserPair& pair : pairs) {
    pair.u = static_cast<std::size_t>(rng.NextBounded(n));
    pair.v = static_cast<std::size_t>(rng.NextBounded(n));
  }
  return pairs;
}

// Tests that hold a dispatch in flight need the injection hooks
// compiled in (-DSLAMPRED_FAULT_INJECTION=ON, the default).
#if SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_REQUIRE_INJECTION()
#else
#define SLAMPRED_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

// Arms "serve.batch" so that the next dispatch parks inside the batcher,
// holding the lane busy until the site is disarmed or re-armed.
void StallNextDispatch() {
  FaultSpec spec;
  spec.kind = FaultKind::kStall;
  FaultInjector::Instance().Arm("serve.batch", spec);
}

// Returns once a dispatch is parked on the stall armed above.
void AwaitStalledDispatch() {
  while (FaultInjector::Instance().TriggerCount("serve.batch") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void AwaitQueueDepth(const ScoringService& service, std::size_t depth) {
  while (service.batcher().queue_depth() < depth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// CPU time the calling thread has used so far.
double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

class ScoringServiceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().Reset();
    ThreadPool::Global().Resize(4);
  }
};

TEST_F(ScoringServiceTest, ScorePairsMatchesSerialOracleBitForBit) {
  const std::size_t n = 20;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  const ScoringSession oracle = MakeOracle(artifact);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
  ScoringService service(&registry);

  Rng rng(7);
  const std::vector<UserPair> pairs = DeterministicPairs(rng, n, 257);
  auto expected = oracle.ScorePairs(pairs);
  ASSERT_TRUE(expected.ok());
  auto got = service.ScorePairs(pairs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().version, 1u);
  ASSERT_EQ(got.value().scores.size(), expected.value().size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(got.value().scores[i], expected.value()[i]) << "pair " << i;
  }

  auto single = service.Score(3, 11);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value(), oracle.Score(3, 11).value());
}

TEST_F(ScoringServiceTest, ErrorsMatchTheOracleContract) {
  ModelRegistry registry;
  ScoringService service(&registry);
  // Before the first swap every request is a failed precondition.
  EXPECT_EQ(service.Score(0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.ScorePairs({{0, 1}}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.TopK(0, 3).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(registry.Swap(MakeArtifact(6, 0.0)).ok());
  EXPECT_EQ(service.Score(6, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(service.ScorePairs({{0, 1}, {1, 6}}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(service.TopK(9, 3).status().code(), StatusCode::kOutOfRange);
  // A bad pair request fails alone; the model keeps serving.
  EXPECT_TRUE(service.ScorePairs({{0, 1}}).ok());
}

// The core harness: at 1/4/7 pool threads, concurrent mixed traffic
// must be bit-identical to the serial oracle.
TEST_F(ScoringServiceTest, ConcurrentMixedTrafficMatchesOracle) {
  const std::size_t n = 40;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  const ScoringSession oracle = MakeOracle(artifact);
  const Matrix& s = *StoredAs<Matrix>(oracle.artifact().scores);

  for (const std::size_t pool_threads : {1u, 4u, 7u}) {
    ThreadPool::Global().Resize(pool_threads);
    ModelRegistry registry;
    ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
    ScoringService service(&registry);

    const std::size_t num_callers = 6;
    const std::size_t iterations = 40;
    std::vector<std::string> failures(num_callers);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < num_callers; ++t) {
      callers.emplace_back([&, t] {
        Rng rng(1000 + t);
        for (std::size_t i = 0; i < iterations; ++i) {
          const std::size_t op = i % 3;
          if (op == 0) {
            const std::size_t u = rng.NextBounded(n);
            const std::size_t v = rng.NextBounded(n);
            auto got = service.Score(u, v);
            if (!got.ok() || got.value() != s(u, v)) {
              failures[t] = "Score mismatch at iteration " +
                            std::to_string(i);
              return;
            }
          } else if (op == 1) {
            const auto pairs = DeterministicPairs(
                rng, n, 1 + rng.NextBounded(96));
            auto got = service.ScorePairs(pairs);
            if (!got.ok()) {
              failures[t] = got.status().ToString();
              return;
            }
            for (std::size_t j = 0; j < pairs.size(); ++j) {
              if (got.value().scores[j] != s(pairs[j].u, pairs[j].v)) {
                failures[t] = "ScorePairs mismatch at iteration " +
                              std::to_string(i) + " element " +
                              std::to_string(j);
                return;
              }
            }
          } else {
            const std::size_t u = rng.NextBounded(n);
            const std::size_t k = rng.NextBounded(n + 2);
            auto got = service.TopK(u, k);
            if (!got.ok()) {
              failures[t] = got.status().ToString();
              return;
            }
            const auto expected = ReferenceTopK(s, u, k);
            if (got.value().entries.size() != expected.size()) {
              failures[t] = "TopK size mismatch at iteration " +
                            std::to_string(i);
              return;
            }
            for (std::size_t j = 0; j < expected.size(); ++j) {
              if (!(got.value().entries[j] == expected[j])) {
                failures[t] = "TopK order mismatch at iteration " +
                              std::to_string(i);
                return;
              }
            }
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (std::size_t t = 0; t < num_callers; ++t) {
      EXPECT_EQ(failures[t], "")
          << "caller " << t << " at " << pool_threads << " pool threads";
    }
  }
}

// Coalesced batches answer exactly what the serial oracle does.
TEST_F(ScoringServiceTest, BatchingOnAndOffAreBitIdentical) {
  const std::size_t n = 24;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  const ScoringSession oracle = MakeOracle(artifact);
  const Matrix& s = *StoredAs<Matrix>(oracle.artifact().scores);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
  BatchScorerOptions options;
  // A tiny batch bound forces real coalescing boundaries.
  options.max_batch_pairs = 8;
  ScoringService batched(&registry, options);

  Rng rng(99);
  for (std::size_t i = 0; i < 30; ++i) {
    const auto pairs = DeterministicPairs(rng, n, 1 + rng.NextBounded(20));
    auto a = batched.ScorePairs(pairs);
    auto b = oracle.ScorePairs(pairs);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().scores, b.value()) << "request " << i;
    const std::size_t u = rng.NextBounded(n);
    auto ta = batched.TopK(u, 5, false);
    ASSERT_TRUE(ta.ok());
    const auto expected = ReferenceTopK(s, u, 5);
    ASSERT_EQ(ta.value().entries.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_TRUE(ta.value().entries[j] == expected[j]);
    }
  }
}

// Hot-swap under load: responses must never mix two artifact versions.
// Version 1, 3, 5, ... serve offset 0; versions 2, 4, ... offset 1000.
TEST_F(ScoringServiceTest, HotSwapUnderLoadNeverServesATornModel) {
  const std::size_t n = 32;
  const ModelArtifact artifact_a = MakeArtifact(n, 0.0);
  const ModelArtifact artifact_b = MakeArtifact(n, 1000.0);

  for (const std::size_t pool_threads : {1u, 4u, 7u}) {
    ThreadPool::Global().Resize(pool_threads);
    ModelRegistry registry;
    ASSERT_TRUE(registry.Swap(ModelArtifact(artifact_a)).ok());
    ScoringService service(&registry);

    std::atomic<bool> stop{false};
    std::thread swapper([&] {
      // Alternate B, A, B, ... so even versions carry offset 1000.
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const ModelArtifact& next = (i % 2 == 0) ? artifact_b : artifact_a;
        ASSERT_TRUE(registry.Swap(ModelArtifact(next)).ok());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    const std::size_t num_callers = 4;
    std::vector<std::string> failures(num_callers);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < num_callers; ++t) {
      callers.emplace_back([&, t] {
        Rng rng(500 + t);
        for (std::size_t i = 0; i < 150; ++i) {
          const auto pairs = DeterministicPairs(rng, n,
                                                1 + rng.NextBounded(48));
          auto got = service.ScorePairs(pairs);
          if (!got.ok()) {
            failures[t] = got.status().ToString();
            return;
          }
          // The version the response claims fixes the offset every
          // score must carry; any other value is a torn read.
          const double offset =
              got.value().version % 2 == 1 ? 0.0 : 1000.0;
          for (std::size_t j = 0; j < pairs.size(); ++j) {
            const double expected =
                ScoreValue(pairs[j].u, pairs[j].v, offset);
            if (got.value().scores[j] != expected) {
              failures[t] = "torn response: version " +
                            std::to_string(got.value().version) +
                            " element " + std::to_string(j);
              return;
            }
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    stop.store(true, std::memory_order_relaxed);
    swapper.join();
    for (std::size_t t = 0; t < num_callers; ++t) {
      EXPECT_EQ(failures[t], "")
          << "caller " << t << " at " << pool_threads << " pool threads";
    }
    EXPECT_EQ(registry.swap_count(), registry.current_version());
    EXPECT_EQ(registry.recovery().swap_failures, 0);
  }
}

TEST_F(ScoringServiceTest, OldVersionKeepsServingWhileItDrains) {
  const std::size_t n = 10;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());

  // An in-flight request holds version 1 across the swap.
  const std::shared_ptr<const ServableModel> held = registry.Acquire();
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 1000.0)).ok());

  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->session.Score(2, 3).value(), ScoreValue(2, 3, 0.0));
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.Acquire()->session.Score(2, 3).value(),
            ScoreValue(2, 3, 1000.0));
  // The drained version dies with its last holder; the registry holds
  // the only other reference to version 2.
  EXPECT_EQ(held.use_count(), 1);
}

TEST_F(ScoringServiceTest, SwapChecksumMatchesSerializedArtifact) {
  const ModelArtifact artifact = MakeArtifact(8, 0.0);
  const std::string bytes = SerializeModelArtifact(artifact);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
  EXPECT_EQ(registry.Acquire()->checksum,
            Crc32(bytes.data(), bytes.size()));
}

TEST_F(ScoringServiceTest, SwapFaultMidSwapLeavesPreviousModelServing) {
  const std::size_t n = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  ScoringService service(&registry);

  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  FaultInjector::Instance().Arm("serve.swap", spec);
  const Status failed = registry.Swap(MakeArtifact(n, 1000.0));
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  // The previous model still serves, version unchanged, failure counted.
  EXPECT_EQ(registry.current_version(), 1u);
  auto score = service.Score(1, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score.value(), ScoreValue(1, 2, 0.0));
  EXPECT_EQ(service.recovery().swap_failures, 1);
  EXPECT_GE(service.recovery().Total(), 1);

  // Once the fault window passes, the swap goes through.
  FaultInjector::Instance().Disarm("serve.swap");
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 1000.0)).ok());
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(service.Score(1, 2).value(), ScoreValue(1, 2, 1000.0));
}

TEST_F(ScoringServiceTest, BatchFaultFailsOneDispatchAndIsCounted) {
  const std::size_t n = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  ScoringService service(&registry);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNumerical;
  FaultInjector::Instance().Arm("serve.batch", spec);
  EXPECT_EQ(service.ScorePairs({{0, 1}}).status().code(),
            StatusCode::kNumericalError);
  EXPECT_EQ(service.recovery().batch_failures, 1);
  // Only that dispatch failed; the next one serves normally.
  EXPECT_TRUE(service.ScorePairs({{0, 1}}).ok());
  EXPECT_EQ(service.recovery().batch_failures, 1);
}

// Group commit: requests that arrive while a dispatch is in flight
// queue behind it, and all of them leave together in the next dispatch.
TEST_F(ScoringServiceTest, CoalescesConcurrentRequestsIntoFewerBatches) {
  SLAMPRED_REQUIRE_INJECTION();
  const std::size_t n = 16;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  const Matrix& s = *StoredAs<Matrix>(artifact.scores);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
  ScoringService service(&registry);

  StallNextDispatch();
  std::thread holder([&] { EXPECT_TRUE(service.ScorePairs({{0, 1}}).ok()); });
  AwaitStalledDispatch();

  const std::size_t num_callers = 8;
  std::vector<std::vector<UserPair>> pairs(num_callers);
  std::vector<Status> statuses(num_callers);
  std::vector<std::vector<double>> scores(num_callers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < num_callers; ++t) {
    Rng rng(t);
    pairs[t] = DeterministicPairs(rng, n, 4);
    callers.emplace_back([&, t] {
      auto got = service.ScorePairs(pairs[t]);
      statuses[t] = got.status();
      if (got.ok()) scores[t] = std::move(got).value().scores;
    });
  }
  AwaitQueueDepth(service, num_callers);
  EXPECT_EQ(service.batcher().batches_dispatched(), 1u);
  FaultInjector::Instance().Disarm("serve.batch");
  holder.join();
  for (std::thread& caller : callers) caller.join();

  // The held dispatch plus exactly one more, carrying every caller.
  EXPECT_EQ(service.batcher().batches_dispatched(), 2u);
  EXPECT_EQ(service.batcher().coalesced_requests(), num_callers);
  for (std::size_t t = 0; t < num_callers; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    ASSERT_EQ(scores[t].size(), pairs[t].size());
    for (std::size_t j = 0; j < pairs[t].size(); ++j) {
      EXPECT_EQ(scores[t][j], s(pairs[t][j].u, pairs[t][j].v));
    }
  }
  EXPECT_EQ(service.recovery().batch_failures, 0);
}

// Work conservation: on an idle service a lone request is dispatched at
// once instead of waiting for company; any coalescing wait of 0.25 ms
// or more fails the bound. The median keeps the bound steady under
// sanitizers and on a busy host.
TEST_F(ScoringServiceTest, IdleServiceDispatchesALoneRequestAtOnce) {
  const std::size_t n = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  ScoringService service(&registry);

  const std::vector<UserPair> pairs = {{0, 1}, {2, 3}};
  const std::size_t calls = 200;
  std::vector<double> micros;
  for (std::size_t i = 0; i < calls; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(service.ScorePairs(pairs).ok());
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::nth_element(micros.begin(), micros.begin() + calls / 2, micros.end());
  EXPECT_LT(micros[calls / 2], 250.0);
  EXPECT_EQ(service.batcher().batches_dispatched(), calls);
  EXPECT_EQ(service.batcher().coalesced_requests(), 0u);
}

// The load generator doubles as an end-to-end smoke of the whole layer.
TEST_F(ScoringServiceTest, LoadGeneratorRunsBothModes) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(24, 0.0)).ok());
  ScoringService service(&registry);

  LoadGeneratorOptions options;
  options.duration_seconds = 0.1;
  options.concurrency = 2;
  options.pairs_per_request = 8;
  options.swap_every_seconds = 0.02;
  auto closed = RunLoadGenerator(registry, service, options);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_GT(closed.value().requests, 0u);
  EXPECT_EQ(closed.value().errors, 0u);
  EXPECT_GT(closed.value().throughput_rps, 0.0);
  EXPECT_EQ(closed.value().final_version, 1 + closed.value().swaps);
  EXPECT_NE(closed.value().ToJson().find("\"throughput_rps\""),
            std::string::npos);

  // Open loop: 500 arrivals/s for 0.1 s is exactly 50 requests (the
  // arrival at 0.1 s is not before the deadline), each issued once,
  // over two connections and over one.
  options.mode = LoadGeneratorOptions::Mode::kOpen;
  options.open_rate_rps = 500.0;
  options.swap_every_seconds = 0.0;
  for (const std::size_t connections : {std::size_t{2}, std::size_t{1}}) {
    options.concurrency = connections;
    auto open = RunLoadGenerator(registry, service, options);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    EXPECT_EQ(open.value().requests, 50u) << connections;
    EXPECT_EQ(open.value().topk_requests, 12u) << connections;
    EXPECT_EQ(open.value().errors, 0u) << connections;
  }
}

TEST_F(ScoringServiceTest,
       LoadGeneratorRejectsOverLongSchedulesAndThreadCounts) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(8, 0.0)).ok());
  ScoringService service(&registry);

  // 2e9 req/s for 0.1 s is 2e8 arrivals, past the bound (and a 1/rate
  // spacing would round to 0 ns).
  LoadGeneratorOptions open;
  open.mode = LoadGeneratorOptions::Mode::kOpen;
  open.open_rate_rps = 2e9;
  open.duration_seconds = 0.1;
  LoadGeneratorOptions too_many;
  too_many.concurrency = kMaxThreads + 1;
  // A closed loop of 1e10 s (or 1e300 s), or a deadline of 1e300 ms,
  // would overflow the nanosecond clock; each is past its 2^24 bound.
  LoadGeneratorOptions closed_1e10;
  closed_1e10.duration_seconds = 1e10;
  LoadGeneratorOptions closed_1e300;
  closed_1e300.duration_seconds = 1e300;
  LoadGeneratorOptions far_deadline;
  far_deadline.duration_seconds = 0.1;
  far_deadline.deadline_ms = 1e300;
  for (const LoadGeneratorOptions& options :
       {open, too_many, closed_1e10, closed_1e300, far_deadline}) {
    auto report = RunLoadGenerator(registry, service, options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
  // No request was sent and no swap ran.
  EXPECT_EQ(service.batcher().batches_dispatched(), 0u);
  EXPECT_EQ(registry.current_version(), 1u);
}

// ---------------------------------------------------------------------
// Overload suite: deadlines, admission control, degraded tiers, and the
// batch-dispatch circuit breaker.
// ---------------------------------------------------------------------

RequestOptions ExpiredDeadline() {
  RequestOptions request;
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  return request;
}

TEST_F(ScoringServiceTest, ExpiredDeadlineIsShedBeforeDispatch) {
  const std::size_t n = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  ScoringService service(&registry);

  EXPECT_EQ(service.ScorePairs({{0, 1}}, ExpiredDeadline()).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.TopK(0, 3, false, ExpiredDeadline()).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.recovery().deadline_exceeded, 2);
  // A request with headroom still serves at the full tier.
  auto ok = service.ScorePairs(
      {{0, 1}}, RequestOptions::WithTimeout(std::chrono::seconds(5)));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().tier, ServeTier::kFull);
  EXPECT_EQ(service.recovery().deadline_exceeded, 2);
}

// Fills the admission queue with two requests parked behind a held
// dispatch (finite deadlines, so they clean themselves up), then checks
// what a third arrival does under each shed policy.
TEST_F(ScoringServiceTest, FullAdmissionQueueShedsPerPolicy) {
  SLAMPRED_REQUIRE_INJECTION();
  const std::size_t n = 12;
  for (const ShedPolicy policy :
       {ShedPolicy::kRejectNewest, ShedPolicy::kRejectOldest}) {
    ModelRegistry registry;
    ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
    BatchScorerOptions batch;
    batch.queue_cap = 2;
    batch.shed_policy = policy;
    ScoringService service(&registry, batch);

    // Nothing dispatches inside the test window: the held dispatch keeps
    // the lane busy, so the queue only drains via deadlines and shedding.
    StallNextDispatch();
    std::thread holder(
        [&] { EXPECT_TRUE(service.ScorePairs({{0, 1}}).ok()); });
    AwaitStalledDispatch();

    const auto parked_deadline =
        RequestOptions::WithTimeout(std::chrono::seconds(1));
    Status parked[2];
    std::vector<std::thread> owners;
    for (std::size_t t = 0; t < 2; ++t) {
      owners.emplace_back([&, t] {
        parked[t] = service.ScorePairs({{0, 1}}, parked_deadline).status();
      });
    }
    AwaitQueueDepth(service, 2);

    // Third arrival against the full queue (its own deadline keeps the
    // reject-oldest variant, which enqueues it, from waiting forever).
    const Status third =
        service
            .ScorePairs({{0, 1}},
                        RequestOptions::WithTimeout(
                            std::chrono::milliseconds(400)))
            .status();
    for (std::thread& owner : owners) owner.join();
    FaultInjector::Instance().Disarm("serve.batch");
    holder.join();

    if (policy == ShedPolicy::kRejectNewest) {
      // The arrival is rejected; both parked requests expire in place.
      EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(parked[0].code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(parked[1].code(), StatusCode::kDeadlineExceeded);
    } else {
      // The oldest parked request is evicted to make room; the arrival
      // and the survivor then expire in place.
      EXPECT_EQ(third.code(), StatusCode::kDeadlineExceeded);
      const bool first_evicted =
          parked[0].code() == StatusCode::kResourceExhausted;
      const bool second_evicted =
          parked[1].code() == StatusCode::kResourceExhausted;
      EXPECT_TRUE(first_evicted != second_evicted)
          << parked[0].ToString() << " / " << parked[1].ToString();
    }
    // Exactly one shed and two deadline expiries, however they landed.
    EXPECT_EQ(service.recovery().shed, 1);
    EXPECT_EQ(service.recovery().deadline_exceeded, 2);
  }
}

// A request claimed into a batch is answered by that batch even when
// its deadline passes first. Until then its owner must sleep, not spin
// on a deadline wait that returns at once: two owners are claimed into
// a held dispatch well inside their deadlines and held 300 ms past
// them. One leads that dispatch (parked in the stall), the other waits
// as a claimed owner; a spinning owner burns its whole wait in CPU.
TEST_F(ScoringServiceTest, ClaimedOwnerSleepsPastItsDeadline) {
  SLAMPRED_REQUIRE_INJECTION();
  const std::size_t n = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  ScoringService service(&registry);

  StallNextDispatch();
  std::thread holder([&] { EXPECT_TRUE(service.ScorePairs({{0, 1}}).ok()); });
  AwaitStalledDispatch();

  const auto budget = std::chrono::milliseconds(250);
  struct Owner {
    Status status;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  Owner owners[2];
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const double cpu_start = ThreadCpuSeconds();
      const auto start = std::chrono::steady_clock::now();
      owners[t].status =
          service.ScorePairs({{1, 2}}, RequestOptions::WithTimeout(budget))
              .status();
      owners[t].wall_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      owners[t].cpu_s = ThreadCpuSeconds() - cpu_start;
    });
  }
  AwaitQueueDepth(service, 2);

  // Re-arming releases the first dispatch and stalls the next, which
  // claims both owners; then hold it past their deadlines.
  StallNextDispatch();
  AwaitStalledDispatch();
  EXPECT_EQ(service.batcher().queue_depth(), 0u);
  std::this_thread::sleep_for(budget + std::chrono::milliseconds(300));
  FaultInjector::Instance().Disarm("serve.batch");
  holder.join();
  for (std::thread& thread : threads) thread.join();

  for (const Owner& owner : owners) {
    EXPECT_TRUE(owner.status.ok()) << owner.status.ToString();
    EXPECT_GT(owner.wall_s, 0.5);
    EXPECT_LT(owner.cpu_s, 0.1 * owner.wall_s)
        << "owner used " << owner.cpu_s << " CPU-s over " << owner.wall_s
        << " s";
  }
  EXPECT_EQ(service.batcher().batches_dispatched(), 2u);
  EXPECT_EQ(service.recovery().deadline_exceeded, 0);
}

// The acceptance scenario: six caller threads against a tiny admission
// queue with tight deadlines. Every response must be OK (bit-identical
// to the oracle), shed, or deadline-exceeded — with the registry
// counters accounting exactly for every non-OK response — and no caller
// may block meaningfully past its deadline.
TEST_F(ScoringServiceTest, OverloadAccountsForEveryResponse) {
  const std::size_t n = 32;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  const Matrix& s = *StoredAs<Matrix>(artifact.scores);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());
  BatchScorerOptions batch;
  batch.queue_cap = 4;
  batch.max_batch_pairs = 64;
  ScoringService service(&registry, batch);

  const std::size_t num_callers = 6;
  const std::size_t requests_each = 150;
  const auto deadline_budget = std::chrono::milliseconds(2);
  // Once claimed into a batch a request is answered by that batch, so a
  // caller can legitimately outlive its deadline by one dispatch; the
  // slack only has to catch unbounded blocking, not scheduling noise.
  const auto slack = std::chrono::milliseconds(250);

  struct CallerTally {
    std::size_t ok = 0;
    std::size_t deadline = 0;
    std::size_t shed = 0;
    std::string failure;
  };
  std::vector<CallerTally> tallies(num_callers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < num_callers; ++t) {
    callers.emplace_back([&, t] {
      CallerTally& tally = tallies[t];
      Rng rng(9000 + t);
      for (std::size_t i = 0; i < requests_each; ++i) {
        const auto start = std::chrono::steady_clock::now();
        RequestOptions request;
        request.deadline = start + deadline_budget;
        Status status;
        if (i % 4 == 3) {
          const std::size_t u = rng.NextBounded(n);
          const std::size_t k = 1 + rng.NextBounded(8);
          auto got = service.TopK(u, k, false, request);
          status = got.status();
          if (got.ok()) {
            if (got.value().tier != ServeTier::kFull) {
              tally.failure = "unexpected tier on request " +
                              std::to_string(i);
              return;
            }
            const auto expected = ReferenceTopK(s, u, k);
            if (got.value().entries.size() != expected.size()) {
              tally.failure = "TopK size mismatch on request " +
                              std::to_string(i);
              return;
            }
            for (std::size_t j = 0; j < expected.size(); ++j) {
              if (!(got.value().entries[j] == expected[j])) {
                tally.failure = "TopK mismatch on request " +
                                std::to_string(i);
                return;
              }
            }
          }
        } else {
          const auto pairs =
              DeterministicPairs(rng, n, 1 + rng.NextBounded(24));
          auto got = service.ScorePairs(pairs, request);
          status = got.status();
          if (got.ok()) {
            if (got.value().tier != ServeTier::kFull) {
              tally.failure = "unexpected tier on request " +
                              std::to_string(i);
              return;
            }
            for (std::size_t j = 0; j < pairs.size(); ++j) {
              if (got.value().scores[j] != s(pairs[j].u, pairs[j].v)) {
                tally.failure = "score mismatch on request " +
                                std::to_string(i);
                return;
              }
            }
          }
        }
        const auto elapsed = std::chrono::steady_clock::now() - start;
        if (elapsed > deadline_budget + slack) {
          tally.failure = "request " + std::to_string(i) +
                          " blocked past its deadline";
          return;
        }
        if (status.ok()) {
          ++tally.ok;
        } else if (status.code() == StatusCode::kDeadlineExceeded) {
          ++tally.deadline;
        } else if (status.code() == StatusCode::kResourceExhausted) {
          ++tally.shed;
        } else {
          tally.failure = "unexpected error: " + status.ToString();
          return;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  std::size_t ok = 0, deadline = 0, shed = 0;
  for (std::size_t t = 0; t < num_callers; ++t) {
    ASSERT_EQ(tallies[t].failure, "") << "caller " << t;
    ok += tallies[t].ok;
    deadline += tallies[t].deadline;
    shed += tallies[t].shed;
  }
  EXPECT_EQ(ok + deadline + shed, num_callers * requests_each);
  // Exact accounting: one counter increment per non-OK response.
  const RecoveryStats recovery = service.recovery();
  EXPECT_EQ(static_cast<std::size_t>(recovery.deadline_exceeded), deadline);
  EXPECT_EQ(static_cast<std::size_t>(recovery.shed), shed);
  EXPECT_EQ(recovery.batch_failures, 0);
  EXPECT_EQ(service.batcher().breaker().trips(), 0);
}

// Deterministic breaker lifecycle, driven by a fake clock and a
// bounded serve.batch fault: trip after three consecutive dispatch
// failures, serve degraded while open, fail the first half-open probe
// (backoff doubles), recover on the second.
TEST_F(ScoringServiceTest, BreakerTripsServesDegradedAndRecovers) {
  const std::size_t n = 12;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());

  auto fake_now = std::chrono::steady_clock::time_point{};
  BatchScorerOptions batch;
  batch.breaker.failure_threshold = 3;
  batch.breaker.base_backoff = std::chrono::milliseconds(100);
  batch.breaker.clock = [&fake_now] { return fake_now; };
  ScoringService service(&registry, batch);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNumerical;
  spec.max_triggers = 4;  // Three to trip + one failed probe.
  FaultInjector::Instance().Arm("serve.batch", spec);

  // Three consecutive dispatch failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.ScorePairs({{0, 1}}).status().code(),
              StatusCode::kNumericalError);
  }
  EXPECT_EQ(service.batcher().breaker().state(),
            CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.recovery().breaker_trips, 1);
  EXPECT_EQ(service.recovery().batch_failures, 3);

  // While open, requests are answered from the cheap tier (no known
  // links registered, so degraded pair scores are all zero) instead of
  // hitting the quarantined dispatch path.
  auto degraded = service.ScorePairs({{0, 1}, {2, 3}});
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().tier, ServeTier::kDegraded);
  EXPECT_EQ(degraded.value().scores, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(service.recovery().degraded_responses, 1);

  // Backoff elapses; the half-open probe hits the last armed fault and
  // re-opens the breaker with a doubled backoff.
  fake_now += std::chrono::milliseconds(150);
  EXPECT_EQ(service.ScorePairs({{0, 1}}).status().code(),
            StatusCode::kNumericalError);
  EXPECT_EQ(service.batcher().breaker().state(),
            CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.batcher().breaker().current_backoff(),
            std::chrono::milliseconds(200));
  EXPECT_EQ(service.recovery().breaker_trips, 2);

  // Still open inside the doubled backoff: degraded again.
  auto still_open = service.ScorePairs({{4, 5}});
  ASSERT_TRUE(still_open.ok());
  EXPECT_EQ(still_open.value().tier, ServeTier::kDegraded);

  // The fault budget is exhausted, so the next probe succeeds and the
  // breaker closes; responses return to the full tier, bit-identical.
  fake_now += std::chrono::milliseconds(250);
  auto recovered = service.ScorePairs({{1, 2}});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().tier, ServeTier::kFull);
  EXPECT_EQ(recovered.value().scores[0], ScoreValue(1, 2, 0.0));
  EXPECT_EQ(service.batcher().breaker().state(),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.recovery().breaker_trips, 2);
  EXPECT_EQ(service.recovery().batch_failures, 4);
  EXPECT_EQ(service.recovery().degraded_responses, 2);
}

// While the breaker is open, a TopK row that is already resident in the
// per-version cache is served verbatim (kCached); a cold row falls back
// to the common-neighbor kernel (kDegraded).
TEST_F(ScoringServiceTest, OpenBreakerServesCachedRowsThenDegrades) {
  const std::size_t n = 16;
  const ModelArtifact artifact = MakeArtifact(n, 0.0);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(ModelArtifact(artifact)).ok());

  auto fake_now = std::chrono::steady_clock::time_point{};
  BatchScorerOptions batch;
  batch.breaker.failure_threshold = 1;
  batch.breaker.clock = [&fake_now] { return fake_now; };
  ScoringService service(&registry, batch);

  // Warm the row cache for u = 3 at the full tier.
  auto warm = service.TopK(3, 5, false);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().tier, ServeTier::kFull);

  // One injected failure trips the threshold-1 breaker.
  FaultSpec spec;
  spec.kind = FaultKind::kFailNumerical;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("serve.batch", spec);
  EXPECT_FALSE(service.ScorePairs({{0, 1}}).ok());
  EXPECT_EQ(service.batcher().breaker().state(),
            CircuitBreaker::State::kOpen);

  // Resident row: answered from the cache, entries identical to the
  // full-tier response.
  auto cached = service.TopK(3, 5, false);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().tier, ServeTier::kCached);
  ASSERT_EQ(cached.value().entries.size(), warm.value().entries.size());
  for (std::size_t j = 0; j < cached.value().entries.size(); ++j) {
    EXPECT_TRUE(cached.value().entries[j] == warm.value().entries[j]);
  }

  // Cold row: common-neighbor fallback (no known links → no entries).
  auto cold = service.TopK(9, 5, false);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().tier, ServeTier::kDegraded);
  EXPECT_EQ(service.recovery().degraded_responses, 2);
}

// degrade_topk_under: a TopK whose remaining deadline budget is below
// the configured floor skips the full row sort and answers cheap.
TEST_F(ScoringServiceTest, TopKDegradesUnderDeadlinePressure) {
  const std::size_t n = 16;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Swap(MakeArtifact(n, 0.0)).ok());
  BatchScorerOptions batch;
  batch.degrade_topk_under = std::chrono::seconds(10);
  ScoringService service(&registry, batch);

  // 1s of budget is far below the 10s floor → cheap tier.
  auto pressured = service.TopK(
      2, 5, false, RequestOptions::WithTimeout(std::chrono::seconds(1)));
  ASSERT_TRUE(pressured.ok());
  EXPECT_EQ(pressured.value().tier, ServeTier::kDegraded);
  EXPECT_EQ(service.recovery().degraded_responses, 1);

  // No deadline → never degraded, whatever the floor.
  auto relaxed = service.TopK(2, 5, false);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.value().tier, ServeTier::kFull);
}

}  // namespace
}  // namespace slampred
