#include "core/fit_report.h"

#include "util/binary_io.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

void AppendField(std::string& out, const char* key, double value,
                 bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += FormatDouble(value, 6);
}

void AppendField(std::string& out, const char* key, std::size_t value,
                 bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendField(std::string& out, const char* key, int value, bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

FitReport MakeFitReport(const SlamPred& model) {
  FitReport report;
  report.phase_times = model.phase_times();
  report.memory_stats = model.memory_stats();
  report.recovery = model.trace().recovery;
  report.threads = ThreadPool::Global().num_threads();
  report.solver_backend = model.config().solver_backend;
  report.solver_rank =
      report.solver_backend == SolverBackend::kFactored
          ? model.config().factored.rank
          : 0;
  report.partitioned = model.partitioned();
  if (report.partitioned) report.partition = model.partition_stats();
  return report;
}

void PrintFitReport(std::FILE* out, const FitReport& report) {
  const FitPhaseTimes& times = report.phase_times;
  if (report.partitioned) {
    std::fprintf(
        out,
        "phase times (s): partition %.3f | features %.3f | embedding %.3f "
        "| cccp %.3f | svd %.3f | total %.3f  [%zu thread(s)]\n",
        times.partition_seconds, times.features_seconds,
        times.embedding_seconds, times.cccp_seconds, times.svd_seconds,
        times.total_seconds, report.threads);
    std::fprintf(out, "partitioned solve: %s\n",
                 report.partition.ToString().c_str());
  } else {
    std::fprintf(
        out,
        "phase times (s): features %.3f | embedding %.3f | cccp %.3f | "
        "svd %.3f | total %.3f  [%zu thread(s)]\n",
        times.features_seconds, times.embedding_seconds, times.cccp_seconds,
        times.svd_seconds, times.total_seconds, report.threads);
  }
  std::fprintf(out, "solver backend: %s",
               SolverBackendName(report.solver_backend));
  if (report.solver_backend == SolverBackend::kFactored) {
    std::fprintf(out, " (rank %zu, fitted rank %zu)", report.solver_rank,
                 report.memory_stats.solver_rank);
  }
  std::fprintf(out, "\n");
  std::fprintf(out, "sparse-path memory: %s\n",
               report.memory_stats.ToString().c_str());
  if (report.artifact.present) {
    std::fprintf(out, "artifact: %llu bytes (%s",
                 static_cast<unsigned long long>(
                     report.artifact.artifact_bytes),
                 report.artifact.mode.c_str());
    if (report.artifact.mode != "float" &&
        report.artifact.float_artifact_bytes > 0) {
      std::fprintf(
          out, ", float equiv %llu bytes, %.2fx smaller, %zu hot row(s)",
          static_cast<unsigned long long>(
              report.artifact.float_artifact_bytes),
          static_cast<double>(report.artifact.float_artifact_bytes) /
              static_cast<double>(report.artifact.artifact_bytes),
          report.artifact.hot_rows);
    }
    std::fprintf(out, ")\n");
  }
  if (report.recovery.Total() > 0) {
    std::fprintf(out, "solver recoveries: %s\n",
                 report.recovery.ToString().c_str());
  }
}

std::string FitReportJson(const FitReport& report) {
  std::string out = "{";
  out += "\"threads\":" + std::to_string(report.threads);
  out += ",\"solver_backend\":\"";
  out += SolverBackendName(report.solver_backend);
  out += "\"";
  out += ",\"solver_rank\":" + std::to_string(report.solver_rank);

  out += ",\"partitioned\":";
  out += report.partitioned ? "true" : "false";

  out += ",\"phase_times\":{";
  bool first = true;
  AppendField(out, "partition_seconds", report.phase_times.partition_seconds,
              &first);
  AppendField(out, "features_seconds", report.phase_times.features_seconds,
              &first);
  AppendField(out, "embedding_seconds", report.phase_times.embedding_seconds,
              &first);
  AppendField(out, "cccp_seconds", report.phase_times.cccp_seconds, &first);
  AppendField(out, "svd_seconds", report.phase_times.svd_seconds, &first);
  AppendField(out, "total_seconds", report.phase_times.total_seconds, &first);
  out += "}";

  const FitMemoryStats& mem = report.memory_stats;
  out += ",\"memory_stats\":{";
  first = true;
  AppendField(out, "adjacency_nnz", mem.adjacency_nnz, &first);
  AppendField(out, "adjacency_bytes", mem.adjacency_bytes, &first);
  AppendField(out, "raw_tensor_nnz", mem.raw_tensor_nnz, &first);
  AppendField(out, "raw_tensor_bytes", mem.raw_tensor_bytes, &first);
  AppendField(out, "adapted_tensor_nnz", mem.adapted_tensor_nnz, &first);
  AppendField(out, "adapted_tensor_bytes", mem.adapted_tensor_bytes, &first);
  AppendField(out, "iterate_bytes", mem.iterate_bytes, &first);
  AppendField(out, "solver_rank", mem.solver_rank, &first);
  out += "}";

  const RecoveryStats& rec = report.recovery;
  out += ",\"recovery\":{";
  first = true;
  AppendField(out, "nan_rollbacks", rec.nan_rollbacks, &first);
  AppendField(out, "prox_rollbacks", rec.prox_rollbacks, &first);
  AppendField(out, "divergence_backoffs", rec.divergence_backoffs, &first);
  AppendField(out, "svd_fallbacks", rec.svd_fallbacks, &first);
  AppendField(out, "checkpoint_resumes", rec.checkpoint_resumes, &first);
  AppendField(out, "swap_failures", rec.swap_failures, &first);
  AppendField(out, "batch_failures", rec.batch_failures, &first);
  AppendField(out, "shed", rec.shed, &first);
  AppendField(out, "deadline_exceeded", rec.deadline_exceeded, &first);
  AppendField(out, "breaker_trips", rec.breaker_trips, &first);
  AppendField(out, "degraded_responses", rec.degraded_responses, &first);
  AppendField(out, "artifact_rollbacks", rec.artifact_rollbacks, &first);
  AppendField(out, "total", rec.Total(), &first);
  out += "}";

  if (report.partitioned) {
    const PartitionStats& part = report.partition;
    out += ",\"partition\":{";
    first = true;
    AppendField(out, "num_clusters", part.num_clusters, &first);
    AppendField(out, "min_cluster", part.min_cluster, &first);
    AppendField(out, "max_cluster", part.max_cluster, &first);
    AppendField(out, "mean_cluster", part.mean_cluster, &first);
    AppendField(out, "cut_edges", part.cut_edges, &first);
    AppendField(out, "total_edges", part.total_edges, &first);
    AppendField(out, "cut_edge_fraction", part.cut_edge_fraction, &first);
    AppendField(out, "refine_seconds", part.refine_seconds, &first);
    out += ",\"size_histogram\":[";
    for (std::size_t b = 0; b < part.size_histogram.size(); ++b) {
      if (b > 0) out += ",";
      out += std::to_string(part.size_histogram[b]);
    }
    out += "],\"cluster_solve_seconds\":[";
    for (std::size_t c = 0; c < part.cluster_solve_seconds.size(); ++c) {
      if (c > 0) out += ",";
      out += FormatDouble(part.cluster_solve_seconds[c], 6);
    }
    out += "]}";
  }

  if (report.artifact.present) {
    out += ",\"artifact\":{";
    out += "\"mode\":\"" + report.artifact.mode + "\"";
    out += ",\"artifact_bytes\":" +
           std::to_string(report.artifact.artifact_bytes);
    out += ",\"float_artifact_bytes\":" +
           std::to_string(report.artifact.float_artifact_bytes);
    out += ",\"hot_rows\":" + std::to_string(report.artifact.hot_rows);
    out += "}";
  }

  out += "}";
  return out;
}

Status WriteFitReportJson(const FitReport& report, const std::string& path) {
  const std::string json = FitReportJson(report) + "\n";
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return Status::OK();
  }
  return WriteStringToFile(json, path);
}

}  // namespace slampred
