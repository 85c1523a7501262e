// Wall-clock timing helper used by benchmarks and experiment harnesses.

#ifndef SLAMPRED_UTIL_STOPWATCH_H_
#define SLAMPRED_UTIL_STOPWATCH_H_

#include <chrono>

namespace slampred {

/// Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch();

  /// Resets the start point to now.
  void Restart();

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;

  /// Milliseconds elapsed since construction or the last Restart().
  double ElapsedMillis() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII scope that accrues wall time spent inside SVD/eigen kernels to a
/// thread-local total (read back via SvdSecondsThisThread). Nested scopes
/// count once: the randomized SVD calls the dense SVD internally, and only
/// the outermost scope adds its elapsed time.
///
/// The counter is thread-local on purpose: a fit runs entirely on one
/// thread (nested ParallelFor falls back to serial), so the counter's
/// delta across a Fit is that fit's own SVD total even when several
/// fits run on different pool workers concurrently.
class SvdTimerScope {
 public:
  SvdTimerScope();
  ~SvdTimerScope();

  SvdTimerScope(const SvdTimerScope&) = delete;
  SvdTimerScope& operator=(const SvdTimerScope&) = delete;

 private:
  bool outermost_;
  Stopwatch watch_;
};

/// Seconds accumulated by outermost SvdTimerScope instances on the
/// current thread since it started (callers take deltas).
double SvdSecondsThisThread();

}  // namespace slampred

#endif  // SLAMPRED_UTIL_STOPWATCH_H_
