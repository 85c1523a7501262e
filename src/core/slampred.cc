#include "core/slampred.h"

#include <cstdio>
#include <utility>

#include "core/fit_pipeline.h"
#include "util/stopwatch.h"

namespace slampred {

SlamPredConfig SlamPredTargetOnlyConfig() {
  SlamPredConfig config;
  config.use_sources = false;
  return config;
}

SlamPredConfig SlamPredHomogeneousConfig() {
  SlamPredConfig config;
  config.use_sources = false;
  config.use_attributes = false;
  return config;
}

std::string FitMemoryStats::ToString() const {
  auto mib = [](std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "A^t %zu nnz (%.2f MiB csr) | X %zu nnz (%.2f) | G %zu nnz "
                "(%.2f) | S %.2f MiB (rank %zu)",
                adjacency_nnz, mib(adjacency_bytes), raw_tensor_nnz,
                mib(raw_tensor_bytes), adapted_tensor_nnz,
                mib(adapted_tensor_bytes), mib(iterate_bytes), solver_rank);
  return buffer;
}

const char* SlamPredVariantName(const SlamPredConfig& config) {
  if (!config.use_sources) {
    return config.use_attributes ? "SLAMPRED-T" : "SLAMPRED-H";
  }
  return "SLAMPRED";
}

SlamPred::SlamPred(SlamPredConfig config) : config_(std::move(config)) {}

Status SlamPred::Fit(const AlignedNetworks& networks,
                     const SocialGraph& target_structure) {
  // A second Fit of the same object starts from clean stats: the
  // context below is fresh, and every stat member is overwritten from
  // it — even on failure, so stale numbers from a previous fit never
  // survive. The scores are replaced only on success, so a failed refit
  // keeps answering from the previous fit.
  // The fit runs on a single thread (nested ParallelFor serialises), so
  // the thread-local SVD accumulator delta is this fit's own SVD total.
  const double svd_seconds_before = SvdSecondsThisThread();
  Stopwatch total_watch;

  FitContext context;
  context.networks = &networks;
  context.target_structure = &target_structure;

  const auto stages = BuildFitPipeline(config_);
  const Status run = RunFitPipeline(stages, context);

  phase_times_ = context.phase_times;
  phase_times_.svd_seconds = SvdSecondsThisThread() - svd_seconds_before;
  phase_times_.total_seconds = total_watch.ElapsedSeconds();
  memory_stats_ = context.memory_stats;
  partition_stats_ = context.partition_stats;
  trace_ = std::move(context.trace);
  if (!run.ok()) return run;
  scores_ = std::move(context.scores);
  return Status::OK();
}

Result<double> SlamPred::Score(std::size_t u, std::size_t v) const {
  if (!fitted()) {
    return Status::FailedPrecondition("SLAMPRED scored before Fit");
  }
  const std::size_t n = NumUsersFitted();
  if (u >= n || v >= n) {
    return Status::OutOfRange(
        "pair (" + std::to_string(u) + ", " + std::to_string(v) +
        ") outside the fitted score matrix (" + std::to_string(n) +
        " users)");
  }
  return scores_->At(u, v);
}

std::string SlamPred::name() const { return SlamPredVariantName(config_); }

Result<std::vector<double>> SlamPred::ScorePairs(
    const std::vector<UserPair>& pairs) const {
  if (!fitted()) {
    return Status::FailedPrecondition("SLAMPRED scored before Fit");
  }
  SLAMPRED_RETURN_NOT_OK(CheckPairsInRange(pairs, NumUsersFitted(), "fitted"));
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const UserPair& pair : pairs) {
    scores.push_back(scores_->At(pair.u, pair.v));
  }
  return scores;
}

}  // namespace slampred
