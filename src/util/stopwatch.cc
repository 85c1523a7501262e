#include "util/stopwatch.h"

namespace slampred {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

void Stopwatch::Restart() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double Stopwatch::ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

namespace {
thread_local double tls_svd_seconds = 0.0;
thread_local int tls_svd_depth = 0;
}  // namespace

SvdTimerScope::SvdTimerScope() : outermost_(tls_svd_depth == 0) {
  ++tls_svd_depth;
}

SvdTimerScope::~SvdTimerScope() {
  --tls_svd_depth;
  if (outermost_) tls_svd_seconds += watch_.ElapsedSeconds();
}

double SvdSecondsThisThread() { return tls_svd_seconds; }

}  // namespace slampred
