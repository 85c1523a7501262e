// Tests of the benchmark's own helpers (bench_util.h). Run with
//   python3 perfbench/run.py selftest

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples is the 990th; ten lie beyond it.
  ASSERT_TRUE(Percentile(Range(1000), 0.99).has_value());
  EXPECT_EQ(*Percentile(Range(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(Range(999), 0.99).has_value());
  EXPECT_FALSE(Percentile(Range(100), 0.99).has_value());
  // A median needs 20 samples (ten beyond the 10th); 19 leave only nine.
  EXPECT_EQ(*Percentile(Range(21), 0.5), 11.0);
  EXPECT_EQ(*Percentile(Range(20), 0.5), 10.0);
  EXPECT_FALSE(Percentile(Range(19), 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> shuffled = Range(2000);
  slampred::Rng rng(3);
  rng.Shuffle(shuffled);
  EXPECT_EQ(Percentile(shuffled, 0.99), Percentile(Range(2000), 0.99));
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(ZipfTest, DeterministicForASeed) {
  const ZipfUsers a(1000, 1.0, 7);
  const ZipfUsers b(1000, 1.0, 7);
  const ZipfUsers c(1000, 1.0, 8);
  slampred::Rng ra(11), rb(11);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Draw(ra), b.Draw(rb));
  EXPECT_EQ(a.MostPopular(20), b.MostPopular(20));
  EXPECT_NE(a.MostPopular(20), c.MostPopular(20));
}

TEST(ZipfTest, FrequenciesFollowRank) {
  const std::size_t n = 1000;
  const ZipfUsers zipf(n, 1.0, 5);
  slampred::Rng rng(9);
  std::map<std::uint32_t, int> counts;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Draw(rng)];
  const std::vector<std::uint32_t> top = zipf.MostPopular(2);
  double harmonic = 0.0;
  for (std::size_t r = 1; r <= n; ++r) harmonic += 1.0 / static_cast<double>(r);
  // Rank 1 draws 1/H_n of the traffic, rank 2 half as much.
  EXPECT_NEAR(counts[top[0]] / static_cast<double>(draws), 1.0 / harmonic,
              0.01);
  EXPECT_NEAR(counts[top[1]] / static_cast<double>(draws),
              0.5 / harmonic, 0.01);
}

TEST(RequestStreamTest, DeterministicForASeed) {
  const TrafficSpec spec{.num_users = 500, .topk_share = 0.75, .k = 10,
                         .pairs_per_request = 8, .zipf_s = 1.0};
  const auto a = MakeRequestStream(spec, 2000, 1, 2);
  const auto b = MakeRequestStream(spec, 2000, 1, 2);
  const auto c = MakeRequestStream(spec, 2000, 3, 2);
  ASSERT_EQ(a.size(), 2000u);
  std::size_t topk = 0;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].topk, b[i].topk);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].pairs, b[i].pairs);
    differs |= a[i].topk != c[i].topk || a[i].u != c[i].u ||
               a[i].pairs != c[i].pairs;
    if (a[i].topk) {
      ++topk;
      EXPECT_LT(a[i].u, 500u);
    } else {
      ASSERT_EQ(a[i].pairs.size(), 8u);
      for (const auto& [u, v] : a[i].pairs) {
        EXPECT_NE(u, v);
        EXPECT_LT(u, 500u);
        EXPECT_LT(v, 500u);
      }
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_NEAR(static_cast<double>(topk) / 2000.0, 0.75, 0.03);
}

TEST(ScheduleTest, FixedRate) {
  EXPECT_EQ(DueTime(0, 400.0), 0.0);
  EXPECT_DOUBLE_EQ(DueTime(400, 400.0), 1.0);
  EXPECT_DOUBLE_EQ(DueTime(3, 2000.0), 0.0015);
}

// A phase of `n` requests at `rate` whose sends are `late` seconds late
// and which each take `service` seconds.
std::vector<RequestRecord> Records(std::size_t n, double rate, double late,
                                   double service) {
  std::vector<RequestRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    RequestRecord& r = records[i];
    r.due = DueTime(i, rate);
    r.send = r.due + late;
    r.done = r.send + service;
    r.sent = r.ok = true;
  }
  return records;
}

TEST(PhaseSummaryTest, LatencyCountsFromTheRelease) {
  std::vector<RequestRecord> records = Records(1000, 1000.0, 0.002, 0.001);
  PhaseSummary s = SummarizePhase(records, 1.0);
  EXPECT_EQ(s.sent, 1000u);
  EXPECT_EQ(s.ok, 1000u);
  EXPECT_NEAR(*s.p50_ms, 3.0, 1e-9);  // 2 ms late + 1 ms of service.
  EXPECT_NEAR(*s.p90_ms, 3.0, 1e-9);
  EXPECT_NEAR(*s.p99_ms, 3.0, 1e-9);
  EXPECT_NEAR(*s.lateness_p99_ms, 2.0, 1e-9);
  EXPECT_NEAR(s.lateness_max_ms, 2.0, 1e-9);
  EXPECT_TRUE(MeetsLimit(s, 5.0));
  EXPECT_FALSE(MeetsLimit(s, 2.5));
  // Released 1.5 ms late by a held-up generator: only the 0.5 ms wait
  // after the release counts toward latency; all 2 ms count as lateness.
  for (RequestRecord& r : records) r.release = r.due + 0.0015;
  s = SummarizePhase(records, 1.0);
  EXPECT_NEAR(*s.p50_ms, 1.5, 1e-9);
  EXPECT_NEAR(*s.p99_ms, 1.5, 1e-9);
  EXPECT_NEAR(*s.lateness_p99_ms, 2.0, 1e-9);
}

TEST(PhaseSummaryTest, MissesAndFailuresMissTheLimit) {
  std::vector<RequestRecord> records = Records(1000, 1000.0, 0.0, 0.001);
  for (std::size_t i = 0; i < 5; ++i) records[i].ok = false;
  for (std::size_t i = 5; i < 11; ++i) records[i].sent = false;
  PhaseSummary s = SummarizePhase(records, 1.0);
  EXPECT_EQ(s.failed, 5u);
  EXPECT_EQ(s.missed, 6u);
  EXPECT_EQ(s.ok, 989u);
  // Eleven infinite samples put the p99 beyond any limit; the p90 holds.
  EXPECT_TRUE(std::isinf(*s.p99_ms));
  EXPECT_NEAR(*s.p90_ms, 1.0, 1e-9);
  EXPECT_TRUE(MeetsLimit(s, 5.0));
  // Past a tenth of the schedule the p90 goes too.
  for (std::size_t i = 11; i < 101; ++i) records[i].sent = false;
  s = SummarizePhase(records, 1.0);
  EXPECT_TRUE(std::isinf(*s.p90_ms));
  EXPECT_FALSE(MeetsLimit(s, 5.0));
}

TEST(PhaseSummaryTest, MedianWindowSkipsAStalledStretch) {
  // The first quarter of the phase is stalled (10 ms), the rest is not.
  std::vector<RequestRecord> records = Records(2000, 1000.0, 0.0, 0.001);
  for (std::size_t i = 0; i < 500; ++i) records[i].done += 0.009;
  const PhaseSummary s = SummarizePhase(records, 2.0, 500);
  EXPECT_EQ(s.windows, 4u);
  EXPECT_NEAR(*s.p90_ms, 10.0, 1e-6);
  EXPECT_NEAR(*s.median_window_p50_ms, 1.0, 1e-6);
  EXPECT_NEAR(*s.median_window_p90_ms, 1.0, 1e-6);
  // A uniformly slower program moves every window.
  for (RequestRecord& r : records) r.done += 0.009;
  EXPECT_NEAR(*SummarizePhase(records, 2.0, 500).median_window_p90_ms, 10.0,
              1e-6);
}

TEST(PhaseSummaryTest, GrowingBacklogFailsEvenWithAGoodP99) {
  std::vector<RequestRecord> records = Records(2000, 1000.0, 0.0, 0.001);
  // The generator falls behind over the last five requests only: too few
  // to move the p90, but the backlog is growing when the phase ends.
  for (std::size_t i = 1995; i < 2000; ++i) {
    records[i].send = records[i].due + 0.002 * static_cast<double>(i - 1994);
    records[i].done = records[i].send + 0.001;
  }
  const PhaseSummary s = SummarizePhase(records, 2.0);
  EXPECT_LE(*s.p90_ms, 5.0);
  EXPECT_NEAR(s.tail_lateness_max_ms, 10.0, 1e-6);
  EXPECT_FALSE(MeetsLimit(s, 5.0));
}

TEST(LadderTest, RungsAreGeometric) {
  const RateLadder ladder{.base_rps = 100.0, .ratio = 1.1, .rungs = 80};
  EXPECT_DOUBLE_EQ(ladder.Rate(0), 100.0);
  EXPECT_NEAR(ladder.Rate(10), 100.0 * std::pow(1.1, 10), 1e-9);
  EXPECT_EQ(ladder.RungAtOrBelow(100.0), 0);
  EXPECT_EQ(ladder.RungAtOrBelow(ladder.Rate(17)), 17);
  EXPECT_EQ(ladder.RungAtOrBelow(ladder.Rate(17) * 1.05), 17);
  EXPECT_EQ(ladder.RungAtOrBelow(50.0), 0);
}

TEST(LadderTest, FindsTheHighestPassingRungFromAnyStart) {
  const RateLadder ladder{.base_rps = 100.0, .ratio = 1.1, .rungs = 80};
  for (const int capacity_rung : {0, 5, 31, 32, 60, 79}) {
    for (const int start : {0, 10, 31, 40, 79}) {
      const LadderResult result = SearchLadder(
          ladder, start, 20, [&](int rung) { return rung <= capacity_rung; });
      EXPECT_EQ(result.best_rung, capacity_rung)
          << "capacity " << capacity_rung << " start " << start;
      // Galloping then bisecting needs about 2·log2(distance) probes.
      EXPECT_LE(result.probes, 16);
    }
  }
}

TEST(LadderTest, NothingPasses) {
  const RateLadder ladder{.base_rps = 100.0, .ratio = 1.1, .rungs = 80};
  const LadderResult result =
      SearchLadder(ladder, 30, 20, [](int) { return false; });
  EXPECT_EQ(result.best_rung, -1);
}

TEST(LadderTest, ProbeBudgetReturnsABestProvenRung) {
  const RateLadder ladder{.base_rps = 100.0, .ratio = 1.1, .rungs = 80};
  const LadderResult result =
      SearchLadder(ladder, 30, 3, [](int rung) { return rung <= 50; });
  EXPECT_EQ(result.probes, 3);
  // 30 passes, 31 passes, 33 passes: the budget ends the search there.
  EXPECT_EQ(result.best_rung, 33);
  // A start next to the answer settles in four probes: 49 passes, 50
  // passes, 52 fails, 51 fails.
  const LadderResult near =
      SearchLadder(ladder, 49, 6, [](int rung) { return rung <= 50; });
  EXPECT_EQ(near.best_rung, 50);
  EXPECT_LE(near.probes, 4);
}

TEST(SpanTest, SelfTimeSubtractsCoveredChildTime) {
  // Parent 0..100; children 10..40 and 30..60 overlap (50 covered), and
  // one child sticks out past the parent's end (clipped to 90..100).
  const std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 100},
      {2, 1, 7, "load.lateness", 10, 40},
      {3, 1, 7, "service.topk", 30, 60},
      {4, 1, 7, "service.pairs", 90, 120},
  };
  const auto totals = SelfTimes(spans);
  EXPECT_NEAR(totals.at("request").self_s, 40e-9, 1e-18);
  EXPECT_NEAR(totals.at("request").total_s, 100e-9, 1e-18);
  EXPECT_NEAR(totals.at("service.pairs").self_s, 30e-9, 1e-18);
  EXPECT_EQ(totals.at("load.lateness").count, 1u);
}

}  // namespace
}  // namespace perfbench
