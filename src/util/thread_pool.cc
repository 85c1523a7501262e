#include "util/thread_pool.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace slampred {

namespace {

// Nested-ParallelFor detection: set while the thread executes chunks.
thread_local bool tls_in_parallel_region = false;

std::size_t ThreadCountFromEnvironment() {
  const std::size_t parsed = ParseThreadCount(std::getenv("SLAMPRED_THREADS"));
  if (parsed > 0) return parsed;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t ParseThreadCount(const char* text) {
  if (text == nullptr) return 0;
  const char* end = text + std::strlen(text);
  std::size_t value = 0;
  // from_chars takes no sign, whitespace or prefix for an unsigned type.
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value > kMaxThreads) return 0;
  return value;
}

// One ParallelFor invocation. Heap-allocated and shared_ptr-held by
// every participating thread, so a worker that wakes late (after the
// loop completed and the pool moved on) still sees a consistent,
// exhausted task instead of dangling caller state.
struct ThreadPool::LoopTask {
  std::function<void(std::size_t, std::size_t)> chunk_fn;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_done{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // Guarded by error_mutex.
};

ThreadPool::ThreadPool(std::size_t num_threads) { Resize(num_threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(ThreadCountFromEnvironment());
  return *pool;
}

void ThreadPool::Resize(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!workers_.empty() && num_threads == num_threads_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = false;
    num_threads_ = num_threads;
    current_task_.reset();
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::RunChunks(LoopTask& task) {
  tls_in_parallel_region = true;
  std::size_t finished = 0;
  for (;;) {
    const std::size_t c =
        task.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= task.num_chunks) break;
    const std::size_t chunk_begin = task.begin + c * task.grain;
    const std::size_t chunk_end =
        std::min(task.end, chunk_begin + task.grain);
    try {
      task.chunk_fn(chunk_begin, chunk_end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(task.error_mutex);
      if (!task.first_error) task.first_error = std::current_exception();
    }
    ++finished;
  }
  tls_in_parallel_region = false;
  if (finished > 0) {
    task.chunks_done.fetch_add(finished, std::memory_order_acq_rel);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<LoopTask> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      task = current_task_;
    }
    if (task == nullptr) continue;
    RunChunks(*task);
    // Empty critical section: orders the chunks_done update before the
    // notification so a caller mid-predicate-check cannot miss it.
    { std::lock_guard<std::mutex> lock(mutex_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t span = end - begin;
  const std::size_t num_chunks = (span + grain - 1) / grain;

  // Serial path: one thread, a single chunk, or a nested call. Chunks
  // still run in ascending order so reductions layered on top see the
  // exact partitioning the parallel path uses.
  if (num_threads_ <= 1 || num_chunks == 1 || tls_in_parallel_region) {
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    std::exception_ptr error;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t chunk_begin = begin + c * grain;
      const std::size_t chunk_end = std::min(end, chunk_begin + grain);
      try {
        chunk_fn(chunk_begin, chunk_end);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    tls_in_parallel_region = was_in_region;
    if (error) std::rethrow_exception(error);
    return;
  }

  auto task = std::make_shared<LoopTask>();
  task->chunk_fn = chunk_fn;
  task->begin = begin;
  task->end = end;
  task->grain = grain;
  task->num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_task_ = task;
    ++epoch_;
  }
  work_cv_.notify_all();
  RunChunks(*task);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return task->chunks_done.load(std::memory_order_acquire) ==
             task->num_chunks;
    });
    if (current_task_ == task) current_task_.reset();
  }
  if (task->first_error) std::rethrow_exception(task->first_error);
}

double ThreadPool::ParallelReduceSum(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& chunk_fn) {
  if (begin >= end) return 0.0;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  std::vector<double> partials(num_chunks, 0.0);
  ParallelFor(begin, end, grain,
              [&](std::size_t chunk_begin, std::size_t chunk_end) {
                partials[(chunk_begin - begin) / grain] =
                    chunk_fn(chunk_begin, chunk_end);
              });
  // Ordered combine: ascending chunk index, on the calling thread.
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, chunk_fn);
}

double ParallelReduceSum(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& chunk_fn) {
  return ThreadPool::Global().ParallelReduceSum(begin, end, grain, chunk_fn);
}

}  // namespace slampred
