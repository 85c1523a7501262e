// Fixed-size worker pool with a deterministic ParallelFor primitive —
// the shared parallel compute layer behind the linalg/optim/features/eval
// hot kernels.
//
// Determinism contract (see DESIGN.md "Parallel execution model"): a
// loop is split into chunks of `grain` consecutive indices, and the
// chunk boundaries depend only on (begin, end, grain) — never on the
// thread count. Kernels built on ParallelFor either (a) give every
// output element exactly one writing chunk, or (b) reduce through
// ParallelReduceSum, which combines per-chunk partials in chunk order
// on the calling thread. Both make results bit-identical for every
// thread count, including the forced-serial SLAMPRED_THREADS=1 path.

#ifndef SLAMPRED_UTIL_THREAD_POOL_H_
#define SLAMPRED_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slampred {

/// Largest thread count taken from outside the program: the
/// SLAMPRED_THREADS variable, `slampred_cli --threads` and
/// `serve-bench --concurrency`.
inline constexpr std::size_t kMaxThreads = 256;

/// A SLAMPRED_THREADS value as a thread count: a whole unsigned decimal
/// in [1, kMaxThreads], or 0 (unset) for anything else — null, empty,
/// signed, junk-suffixed or out of range.
std::size_t ParseThreadCount(const char* text);

/// Fixed-size pool (no work stealing). `num_threads` counts the calling
/// thread, so a pool of size N spawns N−1 workers and size 1 spawns
/// none — the exact serial path.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool. Sized on first use from the SLAMPRED_THREADS
  /// environment variable (ParseThreadCount; unset → hardware
  /// concurrency, 1 forces serial); `slampred_cli --threads` overrides
  /// via Resize().
  static ThreadPool& Global();

  std::size_t num_threads() const { return num_threads_; }

  /// Joins the current workers and respawns at the new size (min 1).
  /// Must not be called from inside a parallel region.
  void Resize(std::size_t num_threads);

  /// Runs `chunk_fn(chunk_begin, chunk_end)` over [begin, end) split
  /// into chunks of `grain` indices (grain 0 is treated as 1). Chunks
  /// may run on any thread in any order; the caller participates and
  /// returns only when every chunk has finished. Runs inline (serial,
  /// in chunk order) when the pool has one thread, when called from
  /// inside another ParallelFor (nested fallback), or when the range
  /// fits a single chunk. The first exception thrown by a chunk is
  /// rethrown on the calling thread after all chunks settle.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& chunk_fn);

  /// Deterministic sum reduction: `chunk_fn` returns the partial sum of
  /// its chunk; partials are combined in ascending chunk order on the
  /// calling thread, so the result is bit-identical for every thread
  /// count (the serial path walks the same chunks in the same order).
  double ParallelReduceSum(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<double(std::size_t, std::size_t)>& chunk_fn);

  /// True while the current thread is executing a ParallelFor chunk
  /// (used for the nested-loop serial fallback).
  static bool InParallelRegion();

 private:
  struct LoopTask;

  void WorkerLoop();
  static void RunChunks(LoopTask& task);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<LoopTask> current_task_;  // Guarded by mutex_.
  std::uint64_t epoch_ = 0;                 // Guarded by mutex_.
  std::size_t num_threads_ = 1;
  bool shutdown_ = false;                   // Guarded by mutex_.
};

/// Conveniences forwarding to ThreadPool::Global().
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& chunk_fn);
double ParallelReduceSum(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& chunk_fn);

/// Minimum scalar work a chunk should carry before parallel dispatch is
/// worth its synchronisation cost; doubles as the small-size serial
/// cutoff (a loop whose total work is below this stays one chunk and
/// runs inline on the caller).
constexpr std::size_t kParallelMinWorkPerChunk = std::size_t{1} << 16;

/// Grain for a loop whose items each cost ~`work_per_item` scalar ops.
/// Deterministic: depends only on the workload, never on thread count.
inline std::size_t GrainForWork(
    std::size_t work_per_item,
    std::size_t min_work = kParallelMinWorkPerChunk) {
  if (work_per_item == 0) work_per_item = 1;
  const std::size_t grain = min_work / work_per_item;
  return grain == 0 ? 1 : grain;
}

}  // namespace slampred

#endif  // SLAMPRED_UTIL_THREAD_POOL_H_
