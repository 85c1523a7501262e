// Unit tests of the shared worker pool: chunk coverage, grain/cutoff
// edge cases, nested-loop serial fallback, exception propagation, the
// ordered reduction, resizing, and the SLAMPRED_THREADS parser.

#include "util/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace slampred {
namespace {

TEST(GrainForWorkTest, ScalesInverselyWithPerItemWork) {
  // Heavy items -> tiny grain; trivial items -> big grain.
  EXPECT_EQ(GrainForWork(kParallelMinWorkPerChunk), 1u);
  EXPECT_EQ(GrainForWork(2 * kParallelMinWorkPerChunk), 1u);  // Clamped.
  EXPECT_EQ(GrainForWork(1), kParallelMinWorkPerChunk);
  EXPECT_EQ(GrainForWork(0), kParallelMinWorkPerChunk);  // 0 treated as 1.
  EXPECT_EQ(GrainForWork(kParallelMinWorkPerChunk / 4), 4u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 7, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnGeometry) {
  // The same (begin, end, grain) must produce the same chunk set for
  // every pool size — that is the determinism contract's foundation.
  auto chunks_at = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.ParallelFor(3, 250, 9, [&](std::size_t i0, std::size_t i1) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(i0, i1);
    });
    return chunks;
  };
  const auto serial = chunks_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(chunks_at(2), serial);
  EXPECT_EQ(chunks_at(7), serial);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 3, [&](std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleElementRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::size_t seen_begin = 99, seen_end = 99;
  pool.ParallelFor(7, 8, 100, [&](std::size_t i0, std::size_t i1) {
    calls.fetch_add(1);
    seen_begin = i0;
    seen_end = i1;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 7u);
  EXPECT_EQ(seen_end, 8u);
}

TEST(ThreadPoolTest, ZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(0, 10, 0, [&](std::size_t i0, std::size_t i1) {
    total.fetch_add(i1 - i0);
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPoolTest, NestedParallelForFallsBackToSerial) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::atomic<int> nested_parallel{0};
  pool.ParallelFor(0, 8, 1, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The inner loop must run inline on this thread, not re-enter the
    // pool (which would deadlock or interleave chunk state).
    pool.ParallelFor(0, 8, 1, [&](std::size_t, std::size_t) {
      if (!ThreadPool::InParallelRegion()) nested_parallel.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_parallel.load(), 0);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](std::size_t i0, std::size_t) {
                         if (i0 == 42) throw std::runtime_error("chunk 42");
                       }),
      std::runtime_error);
  // The pool must stay usable after a throwing loop.
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(0, 50, 1, [&](std::size_t i0, std::size_t i1) {
    total.fetch_add(i1 - i0);
  });
  EXPECT_EQ(total.load(), 50u);
}

TEST(ThreadPoolTest, ExceptionPropagatesOnSerialPath) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 10, 1,
                                [](std::size_t, std::size_t) {
                                  throw std::runtime_error("serial");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ReduceSumIsBitIdenticalAcrossThreadCounts) {
  // Pseudo-random addends make accumulation-order changes visible.
  auto value = [](std::size_t i) {
    return 1.0 / static_cast<double>(3 * i + 1);
  };
  auto sum_at = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.ParallelReduceSum(0, 10000, 17,
                                  [&](std::size_t i0, std::size_t i1) {
                                    double s = 0.0;
                                    for (std::size_t i = i0; i < i1; ++i) {
                                      s += value(i);
                                    }
                                    return s;
                                  });
  };
  const double serial = sum_at(1);
  EXPECT_EQ(sum_at(2), serial);
  EXPECT_EQ(sum_at(7), serial);
}

TEST(ThreadPoolTest, ResizeChangesThreadCount) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  pool.Resize(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(0, 100, 1, [&](std::size_t i0, std::size_t i1) {
    total.fetch_add(i1 - i0);
  });
  EXPECT_EQ(total.load(), 100u);
  pool.Resize(0);  // Clamped to 1.
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<std::size_t> total{0};
  ParallelFor(0, 64, 8, [&](std::size_t i0, std::size_t i1) {
    total.fetch_add(i1 - i0);
  });
  EXPECT_EQ(total.load(), 64u);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
}

TEST(ParseThreadCountTest, AcceptsOnlyWholeDecimalsUpToTheCap) {
  EXPECT_EQ(ParseThreadCount("7"), 7u);
  EXPECT_EQ(ParseThreadCount("1"), 1u);
  EXPECT_EQ(ParseThreadCount(std::to_string(kMaxThreads).c_str()),
            kMaxThreads);
  // Everything else reads as unset (0), so the pool falls back to the
  // hardware thread count instead of asking for 2^64 - 1 workers.
  EXPECT_EQ(ParseThreadCount("-1"), 0u);
  EXPECT_EQ(ParseThreadCount("18446744073709551615"), 0u);
  EXPECT_EQ(ParseThreadCount("18446744073709551616"), 0u);
  EXPECT_EQ(ParseThreadCount("100000"), 0u);
  EXPECT_EQ(ParseThreadCount(std::to_string(kMaxThreads + 1).c_str()), 0u);
  EXPECT_EQ(ParseThreadCount("0"), 0u);
  EXPECT_EQ(ParseThreadCount(""), 0u);
  EXPECT_EQ(ParseThreadCount(nullptr), 0u);
  EXPECT_EQ(ParseThreadCount("+4"), 0u);
  EXPECT_EQ(ParseThreadCount(" 4"), 0u);
  EXPECT_EQ(ParseThreadCount("4 "), 0u);
  EXPECT_EQ(ParseThreadCount("4x"), 0u);
}

}  // namespace
}  // namespace slampred
