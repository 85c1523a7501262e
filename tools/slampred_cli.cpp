// slampred_cli — command-line front end for the library.
//
//   slampred_cli generate --out-dir DIR [--seed N]
//       Generate a synthetic aligned bundle and write target.txt,
//       source.txt and anchors.txt in DIR (graph_io text format).
//
//   slampred_cli generate --out-dir DIR --scale-out 1 [--users N]
//                         [--communities C] [--avg-degree D]
//                         [--power-law A] [--inter-fraction F]
//                         [--coverage F] [--seed N]
//       Structural scale-out bundle: N users (default 100000) with
//       power-law degrees in O(nodes + edges) memory — the input for the
//       partitioned-fit smoke path. No attributes are generated.
//
//   slampred_cli fit --target FILE --source FILE --anchors FILE
//                    --save-model FILE [--method NAME]
//                    [--solver dense|factored] [--rank R]
//                    [--partition none|auto] [--max-cluster N]
//                    [--min-cluster N] [--inner N] [--outer N]
//                    [--quantize off|u8|u16] [--hot-users N]
//                    [--hot-row-entries N]
//                    [--io-policy POLICY] [--stats-json PATH]
//       Fit once on the full observed structure and write a versioned
//       binary model artifact. The artifact can then be served over and
//       over (`predict --model`, `serve-bench`) with no refit.
//       --quantize writes the score payload as per-row u8/u16 codes
//       (DESIGN.md §15) and --hot-users N snapshots the top-K rows of
//       the first N users from the float scores before they are
//       dropped; the fit report and --stats-json carry the quantized
//       vs float byte counts.
//
//   slampred_cli quantize --model FILE --out FILE [--quantize u8|u16]
//                         [--hot-users N] [--hot-row-entries N]
//                         [--stats-json PATH]
//       Rewrite an existing float artifact in quantized form (default
//       u8) without refitting — the cheap path for large models: fit
//       once in float, quantize in seconds.
//
//   slampred_cli predict --target FILE --source FILE --anchors FILE
//                        [--method NAME] [--top K] [--io-policy POLICY]
//                        [--solver dense|factored] [--rank R]
//                        [--stats-json PATH]
//   slampred_cli predict --model FILE --target FILE
//                        [--top K] [--io-policy POLICY]
//       Print the top-K scored *unobserved* target pairs. The first form
//       fits in-process; the second loads a saved artifact and serves it
//       without running any fit stage. Both forms rank identically for
//       the same model. Any solver recoveries taken during an in-process
//       fit are reported on stderr.
//
//   slampred_cli serve-bench --model FILE [--pairs N] [--rounds R]
//       Load an artifact once, then time batched ScorePairs calls and
//       report the serving throughput in pairs/sec.
//
//   slampred_cli serve-bench --model FILE --mode closed|open
//                            [--concurrency N] [--duration S] [--rate RPS]
//                            [--request-pairs N] [--topk K]
//                            [--swap-under-load 0|1] [--deadline-ms MS]
//                            [--queue-cap N] [--shed-policy newest|oldest]
//                            [--quantize off|u8|u16] [--hot-users N]
//                            [--hot-row-entries N]
//                            [--auc-pairs N] [--target FILE]
//                            [--chaos 0|1] [--json PATH]
//       Concurrent serving load generator (ModelRegistry +
//       ScoringService): closed-loop (N caller threads back-to-back) or
//       open-loop (a fixed --rate arrival schedule issued over N
//       connection threads; at most 2^24 arrivals per run) traffic,
//       mixed ScorePairs/TopK requests, optional model hot-swapping
//       under load. --duration (seconds) and --deadline-ms are at most
//       2^24 each. --deadline-ms attaches a deadline to
//       every request; --queue-cap bounds the admission queue with
//       --shed-policy picking the victim; --chaos arms the serve.swap /
//       serve.batch / artifact.read fault sites on a deterministic
//       schedule, swaps from a crash-safe on-disk serving copy, and
//       verifies every full-tier response bit-exactly. Reports
//       throughput, p50/p95/p99 latency, the error taxonomy and serve
//       tiers; --json writes the report (BENCH_serve.json) for CI.
//       --quantize serves the quantized transform of the artifact
//       instead of the float form; --hot-users N precomputes top-K
//       rows for the first N users (served as tier `cached`);
//       --auc-pairs N with --target FILE adds a sampled
//       link-prediction AUC (N observed edges against N non-edges, a
//       tie counting one half) to the report, so quantized and float
//       runs can be compared. The report always carries artifact bytes,
//       float-equivalent bytes, hot-row counts and the cache hit rate.
//
//   slampred_cli evaluate --target FILE --source FILE --anchors FILE
//                         [--method NAME] [--folds K] [--io-policy POLICY]
//                         [--solver dense|factored] [--rank R]
//                         [--save-model-dir DIR] [--rescore-dir DIR]
//                         [--stats-json PATH]
//       Cross-validated AUC / Precision@100 for one method.
//       --save-model-dir writes one artifact per fold; --rescore-dir
//       skips the fits entirely and rescores those saved artifacts.
//
// --solver picks the CCCP iterate representation for SLAMPRED variants:
// `dense` (default, the bit-exact oracle) or `factored` (S = U·Vᵀ with
// --rank R factors, O(n·r²) prox — see DESIGN.md §13). The backend and
// rank are echoed in the fit report, --stats-json, and the serve-bench
// summary of a factored artifact.
//
// --partition auto replaces the single global fit with the hierarchical
// partitioned solve (DESIGN.md §14): cluster the target adjacency
// (--max-cluster / --min-cluster size bounds), fit each cluster
// independently in parallel, refine cross-cluster pairs from the
// neighbouring cluster factors, and emit a sharded artifact. A fit
// whose clustering yields a single cluster is bit-identical to
// --partition none. Applies to fit, predict and evaluate.
//
// --inner / --outer override the fit iteration budgets (inner proximal
// iterations per CCCP round and CCCP rounds; CLI defaults 60 / 2). The
// CI large-n smoke passes a reduced budget so the end-to-end partitioned
// path fits in its wall-clock bound.
//
// --stats-json PATH writes the fit diagnostics (phase times, sparse-path
// memory, solver recoveries) as one JSON object to PATH ("-" = stdout).
// For `evaluate` it reports the fold-0 fit.
//
// --io-policy is `strict` (default: first malformed input record fails
// the load with a line-numbered error) or `lenient` (bad records are
// skipped; skip counts are reported on stderr).
//
// --threads N sizes the shared worker pool for this invocation (every
// command accepts it). It overrides the SLAMPRED_THREADS environment
// variable; N = 1 forces the exact serial path. Results are
// bit-identical for every thread count.
//
// A numeric flag whose value is empty, negative, not a number or
// followed by junk, a count above its cap (--threads and --concurrency
// at most 256, --seed any 64-bit value, every other count at most
// 2^24, the bundle parser's count cap; --duration and --deadline-ms
// at most 2^24 too), a boolean flag (--scale-out,
// --swap-under-load, --chaos) whose value is not 0, 1, true or false,
// and a last flag with no value all stop the command with exit status
// 2 before any work, naming the flag on stderr.
//
// Methods: SLAMPRED (default), SLAMPRED-T, SLAMPRED-H, PL, PL-T, PL-S,
// SCAN, SCAN-T, SCAN-S, JC, CN, PA. `fit` and `predict` fit SLAMPRED
// variants only.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fit_report.h"
#include "core/model_artifact.h"
#include "core/scoring_service.h"
#include "core/scoring_session.h"
#include "datagen/aligned_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "linalg/quantized_matrix.h"
#include "serve/artifact_quantizer.h"
#include "serve/load_generator.h"
#include "util/binary_io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace slampred;

// Minimal --flag value parser. Numeric flags are read through Count and
// Number, which end the program with exit status 2, naming the flag on
// stderr, when the value is empty, negative, not a number or followed
// by junk, or when a count exceeds its cap; boolean flags through Bool,
// which does the same for anything but 0, 1, true or false. A last flag
// with no value exits 2 as well.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) key = key.substr(2);
      if (i + 1 == argc) Reject(key, "a value", "");
      values_[key] = argv[i + 1];
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::optional<std::string> GetRequired(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      return std::nullopt;
    }
    return it->second;
  }

  /// --key as an integer in [0, max]; `fallback` when the flag is
  /// absent. The default cap is the parser's count cap, so no count
  /// can ask for more users, pairs or rows than a bundle file may hold.
  std::uint64_t Count(const std::string& key, std::uint64_t fallback,
                      std::uint64_t max = kMaxParsedCount) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::uint64_t value = 0;
    if (!ParsesWhole(it->second, value) || value > max) {
      const std::string expects =
          "an integer in [0, " + std::to_string(max) + "]";
      Reject(key, expects.c_str(), it->second);
    }
    return value;
  }

  /// --seed: any 64-bit value.
  std::uint64_t Seed(std::uint64_t fallback) const {
    return Count("seed", fallback, std::numeric_limits<std::uint64_t>::max());
  }

  /// --key as a finite non-negative number, at most `max` when one is
  /// given; `fallback` when absent.
  double Number(const std::string& key, double fallback,
                std::optional<std::uint64_t> max = std::nullopt) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParsesWhole(it->second, value) || it->second.front() == '-' ||
        !std::isfinite(value)) {
      Reject(key, "a non-negative number", it->second);
    }
    if (max.has_value() && value > static_cast<double>(*max)) {
      const std::string expects =
          "a number in [0, " + std::to_string(*max) + "]";
      Reject(key, expects.c_str(), it->second);
    }
    return value;
  }

  /// --key as 0/1/true/false; `fallback` when absent.
  bool Bool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    if (it->second == "1" || it->second == "true") return true;
    if (it->second != "0" && it->second != "false") {
      Reject(key, "0, 1, true or false", it->second);
    }
    return false;
  }

 private:
  // True when all of `text` (non-empty) is one number; from_chars takes
  // no leading whitespace or '+', and no '-' for unsigned types.
  template <typename T>
  static bool ParsesWhole(const std::string& text, T& value) {
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    return !text.empty() && error == std::errc() && stop == end;
  }

  [[noreturn]] static void Reject(const std::string& key, const char* expects,
                                  const std::string& text) {
    std::fprintf(stderr, "--%s expects %s, got '%s'\n", key.c_str(), expects,
                 text.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

std::optional<MethodId> MethodFromName(const std::string& name) {
  for (MethodId method : AllMethods()) {
    if (name == MethodIdName(method)) return method;
  }
  std::fprintf(stderr, "unknown method '%s'; valid:", name.c_str());
  for (MethodId method : AllMethods()) {
    std::fprintf(stderr, " %s", MethodIdName(method));
  }
  std::fprintf(stderr, "\n");
  return std::nullopt;
}

// Writes a generated bundle as target.txt / source.txt / anchors.txt.
int WriteBundle(const AlignedNetworks& networks, const std::string& out_dir) {
  const std::string base = out_dir + "/";
  for (const auto& [status, path] :
       {std::make_pair(SaveNetwork(networks.target(), base + "target.txt"),
                       base + "target.txt"),
        std::make_pair(SaveNetwork(networks.source(0), base + "source.txt"),
                       base + "source.txt"),
        std::make_pair(SaveAnchors(networks.anchors(0), base + "anchors.txt"),
                       base + "anchors.txt")}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("target : %s\n", networks.target().Summary().c_str());
  std::printf("source : %s\n", networks.source(0).Summary().c_str());
  std::printf("anchors: %zu\n", networks.anchors(0).size());
  return 0;
}

int Generate(const Flags& flags) {
  const auto out_dir = flags.GetRequired("out-dir");
  if (!out_dir.has_value()) return 2;
  const std::uint64_t seed = flags.Seed(42);

  if (flags.Bool("scale-out", false)) {
    ScaleOutConfig config;
    config.seed = seed;
    config.num_users = flags.Count("users", 100000);
    config.num_communities = flags.Count("communities", 64);
    config.avg_degree = flags.Number("avg-degree", 8);
    config.power_law_exponent = flags.Number("power-law", 2.5);
    config.inter_community_fraction = flags.Number("inter-fraction", 0.05);
    config.source_coverage = flags.Number("coverage", 0.7);
    Stopwatch watch;
    auto generated = GenerateAlignedScaleOut(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    std::printf("scale-out bundle: %zu users, %zu communities in %.2f s\n",
                config.num_users, config.num_communities,
                watch.ElapsedSeconds());
    return WriteBundle(generated.value().networks, *out_dir);
  }

  auto generated = GenerateAligned(DefaultExperimentConfig(seed));
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  return WriteBundle(generated.value().networks, *out_dir);
}

// Reports what a lenient load had to skip, so silently-degraded input
// is visible on stderr.
void ReportParseStats(const std::string& path, const ParseStats& stats) {
  if (stats.lines_skipped == 0 && stats.duplicate_edges == 0) return;
  std::fprintf(stderr,
               "%s: skipped %zu bad record(s), %zu duplicate(s); first: %s\n",
               path.c_str(), stats.lines_skipped, stats.duplicate_edges,
               stats.first_error.ToString().c_str());
}

Result<ParseOptions> IoPolicyFromFlags(const Flags& flags) {
  const std::string policy_name = flags.Get("io-policy", "strict");
  ParseOptions io;
  if (policy_name == "lenient") {
    io.policy = ParsePolicy::kLenient;
  } else if (policy_name != "strict") {
    return Status::InvalidArgument(
        "--io-policy must be strict or lenient, got " + policy_name);
  }
  return io;
}

Result<AlignedNetworks> LoadBundle(const Flags& flags) {
  const auto target_path = flags.GetRequired("target");
  const auto source_path = flags.GetRequired("source");
  const auto anchors_path = flags.GetRequired("anchors");
  if (!target_path || !source_path || !anchors_path) {
    return Status::InvalidArgument("missing input paths");
  }
  auto io = IoPolicyFromFlags(flags);
  if (!io.ok()) return io.status();

  ParseStats stats;
  auto target = LoadNetwork(*target_path, io.value(), &stats);
  if (!target.ok()) return target.status();
  ReportParseStats(*target_path, stats);
  stats = ParseStats{};
  auto source = LoadNetwork(*source_path, io.value(), &stats);
  if (!source.ok()) return source.status();
  ReportParseStats(*source_path, stats);
  stats = ParseStats{};
  auto anchors = LoadAnchors(*anchors_path, io.value(), &stats);
  if (!anchors.ok()) return anchors.status();
  ReportParseStats(*anchors_path, stats);
  AlignedNetworks bundle(std::move(target).value());
  bundle.AddSource(std::move(source).value(), std::move(anchors).value());
  return bundle;
}

// --solver dense|factored and --rank R, shared by every fitting command
// (fit, predict, evaluate).
Status ApplySolverFlags(const Flags& flags, SlamPredConfig& config) {
  const std::string solver = flags.Get("solver", "dense");
  if (solver == "factored") {
    config.solver_backend = SolverBackend::kFactored;
  } else if (solver != "dense") {
    return Status::InvalidArgument("--solver must be dense or factored, got " +
                                   solver);
  }
  if (flags.Has("rank")) {
    const std::size_t rank = flags.Count("rank", 24);
    if (rank == 0) return Status::InvalidArgument("--rank must be >= 1");
    config.factored.rank = rank;
  }
  return Status::OK();
}

// --partition none|auto plus the --max-cluster / --min-cluster size
// bounds of the hierarchical partitioned solve; shared by every fitting
// command.
Status ApplyPartitionFlags(const Flags& flags, SlamPredConfig& config) {
  const std::string partition = flags.Get("partition", "none");
  if (partition == "auto") {
    config.partition.mode = PartitionMode::kAuto;
  } else if (partition != "none") {
    return Status::InvalidArgument("--partition must be none or auto, got " +
                                   partition);
  }
  if (flags.Has("max-cluster")) {
    const std::size_t cap = flags.Count("max-cluster", 1024);
    if (cap == 0) return Status::InvalidArgument("--max-cluster must be >= 1");
    config.partition.max_cluster_size = cap;
  }
  if (flags.Has("min-cluster")) {
    config.partition.min_cluster_size = flags.Count("min-cluster", 8);
  }
  if (config.partition.min_cluster_size > config.partition.max_cluster_size) {
    return Status::InvalidArgument("--min-cluster exceeds --max-cluster");
  }
  return Status::OK();
}

// --inner / --outer iteration budgets; used by the CI smoke paths to
// run reduced-budget fits at large n. Defaults leave the CLI budget
// (inner 60, outer 2) untouched.
Status ApplyBudgetFlags(const Flags& flags, SlamPredConfig& config) {
  if (flags.Has("inner")) {
    const std::size_t inner = flags.Count("inner", 60);
    if (inner == 0) return Status::InvalidArgument("--inner must be >= 1");
    config.optimization.inner.max_iterations = inner;
  }
  if (flags.Has("outer")) {
    const std::size_t outer = flags.Count("outer", 2);
    if (outer == 0) return Status::InvalidArgument("--outer must be >= 1");
    config.optimization.max_outer_iterations = outer;
  }
  return Status::OK();
}

// On-disk size of `path` (0 when unreadable).
std::uint64_t FileSizeBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  return size < 0 ? 0 : static_cast<std::uint64_t>(size);
}

// The quantizer options shared by fit/predict/quantize/serve-bench:
// the code width from --quantize off|u8|u16 (nullopt for off), the
// hot-user set from --hot-users N (the first N ids) and
// --hot-row-entries. `fallback` is the mode used when --quantize is
// absent ("off" everywhere except the quantize subcommand, which
// defaults to u8). Read before any work, so a bad value stops the
// command first.
Result<std::optional<ArtifactQuantizerOptions>> QuantizerFromFlags(
    const Flags& flags, const std::string& fallback) {
  ArtifactQuantizerOptions options;
  options.hot_user_count = flags.Count("hot-users", 0);
  options.hot_row_entries = flags.Count("hot-row-entries", 256);
  const std::string mode = flags.Get("quantize", fallback);
  if (mode == "off") return std::optional<ArtifactQuantizerOptions>{};
  if (mode == "u8") {
    options.bits = QuantizationBits::kU8;
  } else if (mode == "u16") {
    options.bits = QuantizationBits::kU16;
  } else {
    return Status::InvalidArgument(
        "--quantize must be off, u8 or u16, got " + mode);
  }
  return std::optional<ArtifactQuantizerOptions>{options};
}

// Sampled link-prediction AUC of the served scores: `sample_pairs`
// random observed edges as positives against as many random non-edges,
// drawn deterministically from `seed`. Returns −1 when the sample is
// degenerate (no edges, or the graph does not match the model).
double SampledAuc(const ScoringSession& session, const SocialGraph& observed,
                  std::size_t sample_pairs, std::uint64_t seed) {
  const std::size_t n = session.num_users();
  if (sample_pairs == 0 || observed.num_users() != n) return -1.0;
  const std::vector<UserPair> edges = observed.Edges();
  if (edges.empty() || observed.Density() >= 1.0) return -1.0;

  std::uint64_t state = seed;
  const auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  std::vector<double> positives;
  positives.reserve(sample_pairs);
  for (std::size_t i = 0; i < sample_pairs; ++i) {
    const UserPair& edge = edges[next() % edges.size()];
    positives.push_back(session.ScoreUnchecked(edge.u, edge.v));
  }
  std::vector<double> negatives;
  negatives.reserve(sample_pairs);
  for (std::size_t attempts = 0;
       negatives.size() < sample_pairs && attempts < sample_pairs * 100;
       ++attempts) {
    const std::size_t u = static_cast<std::size_t>(next() % n);
    const std::size_t v = static_cast<std::size_t>(next() % n);
    if (u == v || observed.HasEdge(u, v)) continue;
    negatives.push_back(session.ScoreUnchecked(u, v));
  }
  if (negatives.empty()) return -1.0;

  // Positives labelled 1, negatives 0; ComputeAuc counts a tie as half
  // a win, like comparing every positive with every negative.
  std::vector<int> labels(positives.size(), 1);
  labels.resize(positives.size() + negatives.size(), 0);
  positives.insert(positives.end(), negatives.begin(), negatives.end());
  const auto auc = ComputeAuc(positives, labels);
  return auc.ok() ? auc.value() : -1.0;
}

// The SLAMPRED config both `fit` and the fitting form of `predict` use,
// so a saved artifact and an in-process fit produce bit-identical
// models for the same inputs.
Result<SlamPredConfig> CliModelConfig(const Flags& flags) {
  const std::string method_name = flags.Get("method", "SLAMPRED");
  SlamPredConfig config;
  if (method_name == "SLAMPRED-T") {
    config = SlamPredTargetOnlyConfig();
  } else if (method_name == "SLAMPRED-H") {
    config = SlamPredHomogeneousConfig();
  } else if (method_name != "SLAMPRED") {
    return Status::InvalidArgument(
        "this command fits SLAMPRED variants only (SLAMPRED, SLAMPRED-T, "
        "SLAMPRED-H), got " + method_name);
  }
  config.optimization.inner.max_iterations = 60;
  config.optimization.max_outer_iterations = 2;
  SLAMPRED_RETURN_NOT_OK(ApplySolverFlags(flags, config));
  SLAMPRED_RETURN_NOT_OK(ApplyPartitionFlags(flags, config));
  SLAMPRED_RETURN_NOT_OK(ApplyBudgetFlags(flags, config));
  return config;
}

// Fits the CLI model on the full observed structure; shared by `fit`
// and the fitting form of `predict`.
Result<std::pair<SlamPred, SocialGraph>> FitFromFlags(const Flags& flags) {
  auto config = CliModelConfig(flags);
  if (!config.ok()) return config.status();
  auto bundle = LoadBundle(flags);
  if (!bundle.ok()) return bundle.status();

  SocialGraph observed =
      SocialGraph::FromHeterogeneousNetwork(bundle.value().target());
  SlamPred model(config.value());
  SLAMPRED_RETURN_NOT_OK(model.Fit(bundle.value(), observed));
  if (model.trace().recovery.Total() > 0) {
    std::fprintf(stderr, "solver recoveries: %s\n",
                 model.trace().recovery.ToString().c_str());
  }
  return std::make_pair(std::move(model), std::move(observed));
}

// Prints the shared fit-report block and honors --stats-json.
int EmitFitReport(const Flags& flags, const FitReport& report) {
  PrintFitReport(stdout, report);
  if (flags.Has("stats-json")) {
    const Status written =
        WriteFitReportJson(report, flags.Get("stats-json", "-"));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// Ranks every unobserved target pair with `scorer` and prints the top
// K. Identical for an in-process model and a loaded artifact.
int PrintTopPredictions(const LinkPredictor& scorer,
                        const SocialGraph& observed, std::size_t top_k) {
  std::vector<UserPair> candidates;
  for (std::size_t u = 0; u < observed.num_users(); ++u) {
    for (std::size_t v = u + 1; v < observed.num_users(); ++v) {
      if (!observed.HasEdge(u, v)) candidates.push_back({u, v});
    }
  }
  auto scores = scorer.ScorePairs(candidates);
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores.value()[a] != scores.value()[b]) {
      return scores.value()[a] > scores.value()[b];
    }
    return a < b;  // Deterministic tie-break by candidate order.
  });

  std::printf("top %zu predicted links (u, v, confidence):\n",
              std::min(top_k, order.size()));
  for (std::size_t i = 0; i < top_k && i < order.size(); ++i) {
    const UserPair& pair = candidates[order[i]];
    std::printf("%6zu %6zu  %.4f\n", pair.u, pair.v,
                scores.value()[order[i]]);
  }
  return 0;
}

int Fit(const Flags& flags) {
  const auto model_path = flags.GetRequired("save-model");
  if (!model_path.has_value()) return 2;
  auto quantizer = QuantizerFromFlags(flags, "off");
  if (!quantizer.ok()) {
    std::fprintf(stderr, "%s\n", quantizer.status().ToString().c_str());
    return 2;
  }
  auto fitted = FitFromFlags(flags);
  if (!fitted.ok()) {
    std::fprintf(stderr, "%s\n", fitted.status().ToString().c_str());
    return 1;
  }
  const SlamPred& model = fitted.value().first;
  FitReport report = MakeFitReport(model);

  auto artifact = MakeModelArtifact(model);
  if (!artifact.ok()) {
    std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
    return 1;
  }
  report.artifact.present = true;
  if (quantizer.value().has_value()) {
    ArtifactQuantizeReport quantize_report;
    auto quantized = QuantizeModelArtifact(
        std::move(artifact).value(), *quantizer.value(), &quantize_report);
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
      return 1;
    }
    artifact = std::move(quantized).value();
    report.artifact.mode = QuantizationBitsName(quantizer.value()->bits);
    report.artifact.float_artifact_bytes = quantize_report.float_bytes;
    report.artifact.hot_rows = quantize_report.hot_rows;
  }
  const std::string bytes = SerializeModelArtifact(artifact.value());
  report.artifact.artifact_bytes = bytes.size();
  if (report.artifact.mode == "float") {
    report.artifact.float_artifact_bytes = bytes.size();
  }
  const Status saved = SaveModelArtifact(artifact.value(), *model_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  const int report_rc = EmitFitReport(flags, report);
  if (report_rc != 0) return report_rc;
  std::printf("wrote model artifact %s (%zu bytes, format v%u, %s, %s)\n",
              model_path->c_str(), bytes.size(), kModelArtifactFormatVersion,
              SlamPredVariantName(model.config()),
              artifact.value().scores->Describe().c_str());
  return 0;
}

// `quantize --model IN --out OUT [--quantize u8|u16] [--hot-users N]
// [--hot-row-entries N]`: rewrites a float artifact with quantized
// score sections plus a precomputed hot-user cache — no refit, so a
// 9-minute fit quantizes in seconds.
int Quantize(const Flags& flags) {
  const auto model_path = flags.GetRequired("model");
  const auto out_path = flags.GetRequired("out");
  if (!model_path || !out_path) return 2;
  auto quantizer = QuantizerFromFlags(flags, "u8");
  if (!quantizer.ok()) {
    std::fprintf(stderr, "%s\n", quantizer.status().ToString().c_str());
    return 2;
  }
  if (!quantizer.value().has_value()) {
    std::fprintf(stderr, "quantize needs --quantize u8 or u16\n");
    return 2;
  }
  auto artifact = LoadModelArtifact(*model_path);
  if (!artifact.ok()) {
    std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
    return 1;
  }
  Stopwatch watch;
  ArtifactQuantizeReport report;
  auto quantized = QuantizeModelArtifact(std::move(artifact).value(),
                                         *quantizer.value(), &report);
  if (!quantized.ok()) {
    std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveModelArtifact(quantized.value(), *out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf(
      "quantized %s -> %s (%s): %llu bytes from %llu float bytes "
      "(%.2fx smaller), %zu hot row(s), %.2f s\n",
      model_path->c_str(), out_path->c_str(),
      QuantizationBitsName(quantizer.value()->bits),
      static_cast<unsigned long long>(report.quantized_bytes),
      static_cast<unsigned long long>(report.float_bytes), report.shrink(),
      report.hot_rows, watch.ElapsedSeconds());
  if (flags.Has("stats-json")) {
    std::string json = "{\"mode\":\"";
    json += QuantizationBitsName(quantizer.value()->bits);
    json += "\",\"artifact_bytes\":" + std::to_string(report.quantized_bytes);
    json += ",\"float_artifact_bytes\":" + std::to_string(report.float_bytes);
    json += ",\"hot_rows\":" + std::to_string(report.hot_rows);
    json += "}\n";
    const std::string json_path = flags.Get("stats-json", "-");
    if (json_path == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      const Status written = WriteStringToFile(json, json_path);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
    }
  }
  return 0;
}

// `predict --model FILE --target FILE`: serve a saved artifact, no fit.
int PredictFromArtifact(const Flags& flags, std::size_t top_k) {
  const auto model_path = flags.GetRequired("model");
  const auto target_path = flags.GetRequired("target");
  if (!model_path || !target_path) return 2;
  auto quantizer = QuantizerFromFlags(flags, "off");
  if (!quantizer.ok()) {
    std::fprintf(stderr, "%s\n", quantizer.status().ToString().c_str());
    return 2;
  }
  auto io = IoPolicyFromFlags(flags);
  if (!io.ok()) {
    std::fprintf(stderr, "%s\n", io.status().ToString().c_str());
    return 1;
  }
  ParseStats stats;
  auto target = LoadNetwork(*target_path, io.value(), &stats);
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }
  ReportParseStats(*target_path, stats);
  const SocialGraph observed =
      SocialGraph::FromHeterogeneousNetwork(target.value());

  auto session = [&]() -> Result<ScoringSession> {
    if (!quantizer.value().has_value()) {
      return ScoringSession::FromFile(*model_path);
    }
    // --quantize: transform the loaded float artifact in memory and
    // serve the dequantizing session instead.
    auto artifact = LoadModelArtifact(*model_path);
    if (!artifact.ok()) return artifact.status();
    auto quantized =
        QuantizeModelArtifact(std::move(artifact).value(), *quantizer.value());
    if (!quantized.ok()) return quantized.status();
    return ScoringSession::FromArtifact(std::move(quantized).value());
  }();
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  if (session.value().num_users() != observed.num_users()) {
    std::fprintf(stderr,
                 "model artifact covers %zu users but %s has %zu\n",
                 session.value().num_users(), target_path->c_str(),
                 observed.num_users());
    return 1;
  }
  std::printf("serving %s from %s\n", session.value().name().c_str(),
              model_path->c_str());
  return PrintTopPredictions(session.value(), observed, top_k);
}

int Predict(const Flags& flags) {
  const std::size_t top_k = flags.Count("top", 20);
  if (flags.Has("model")) return PredictFromArtifact(flags, top_k);

  auto quantizer = QuantizerFromFlags(flags, "off");
  if (!quantizer.ok()) {
    std::fprintf(stderr, "%s\n", quantizer.status().ToString().c_str());
    return 2;
  }
  auto fitted = FitFromFlags(flags);
  if (!fitted.ok()) {
    std::fprintf(stderr, "%s\n", fitted.status().ToString().c_str());
    return 1;
  }
  const SlamPred& model = fitted.value().first;
  const int report_rc = EmitFitReport(flags, MakeFitReport(model));
  if (report_rc != 0) return report_rc;
  if (quantizer.value().has_value()) {
    // --quantize: rank from the quantized artifact the fit would ship,
    // not the float model — the scores readers of the output will see.
    auto artifact = MakeModelArtifact(model);
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
      return 1;
    }
    auto quantized =
        QuantizeModelArtifact(std::move(artifact).value(), *quantizer.value());
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
      return 1;
    }
    auto session = ScoringSession::FromArtifact(std::move(quantized).value());
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 1;
    }
    std::printf("ranking from quantized scores (%s)\n",
                QuantizationBitsName(quantizer.value()->bits));
    return PrintTopPredictions(session.value(), fitted.value().second, top_k);
  }
  return PrintTopPredictions(model, fitted.value().second, top_k);
}

// `serve-bench --mode closed|open`: the concurrent serving load
// generator over ModelRegistry + ScoringService.
int ServeLoadGen(const Flags& flags, const std::string& model_path) {
  LoadGeneratorOptions options;
  const std::string mode = flags.Get("mode", "closed");
  if (mode == "open") {
    options.mode = LoadGeneratorOptions::Mode::kOpen;
  } else if (mode != "closed") {
    std::fprintf(stderr, "--mode must be closed or open, got %s\n",
                 mode.c_str());
    return 2;
  }
  options.concurrency = flags.Count("concurrency", 4, kMaxThreads);
  // The load generator's bound on both spans, checked before the model
  // loads.
  options.duration_seconds = flags.Number("duration", 2, kMaxParsedCount);
  options.open_rate_rps = flags.Number("rate", 2000);
  options.pairs_per_request = flags.Count("request-pairs", 64);
  options.top_k = flags.Count("topk", 10);
  options.seed = flags.Seed(42);
  if (flags.Bool("swap-under-load", false)) options.swap_every_seconds = 0.25;
  options.deadline_ms = flags.Number("deadline-ms", 0, kMaxParsedCount);
  options.chaos = flags.Bool("chaos", false);
  const std::size_t auc_pairs = flags.Count("auc-pairs", 0);
  BatchScorerOptions batch;
  batch.queue_cap = flags.Count("queue-cap", 0);
  const std::string shed_policy = flags.Get("shed-policy", "newest");
  if (shed_policy == "oldest") {
    batch.shed_policy = ShedPolicy::kRejectOldest;
  } else if (shed_policy != "newest") {
    std::fprintf(stderr, "--shed-policy must be newest or oldest, got %s\n",
                 shed_policy.c_str());
    return 2;
  }
  auto quantizer = QuantizerFromFlags(flags, "off");
  if (!quantizer.ok()) {
    std::fprintf(stderr, "%s\n", quantizer.status().ToString().c_str());
    return 2;
  }
  const std::size_t hot_users = flags.Count("hot-users", 0);
  ModelRegistryOptions registry_options;
  registry_options.hot_row_entries = flags.Count("hot-row-entries", 256);
  registry_options.hot_users.reserve(hot_users);
  for (std::size_t u = 0; u < hot_users; ++u) {
    registry_options.hot_users.push_back(static_cast<std::uint32_t>(u));
  }

  ModelRegistry registry(registry_options);
  std::uint64_t artifact_bytes = 0;
  std::uint64_t float_equiv_bytes = 0;
  Status swapped = Status::OK();
  if (quantizer.value().has_value()) {
    // --quantize: transform the float artifact in memory, then publish
    // the quantized form — the hot-user cache the quantizer snapshots
    // rides in, so the registry precomputes nothing at swap time.
    auto artifact = LoadModelArtifact(model_path);
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
      return 1;
    }
    ArtifactQuantizeReport quantize_report;
    auto quantized = QuantizeModelArtifact(
        std::move(artifact).value(), *quantizer.value(), &quantize_report);
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
      return 1;
    }
    artifact_bytes = quantize_report.quantized_bytes;
    float_equiv_bytes = quantize_report.float_bytes;
    swapped = registry.Swap(std::move(quantized).value());
  } else {
    swapped = registry.SwapFromFile(model_path);
    artifact_bytes = FileSizeBytes(model_path);
    float_equiv_bytes = artifact_bytes;
  }
  if (!swapped.ok()) {
    std::fprintf(stderr, "%s\n", swapped.ToString().c_str());
    return 1;
  }
  if (options.chaos) {
    // Chaos swaps reload from disk so the artifact.read fault site and
    // the last_good rollback run under load. Publish a crash-safe
    // serving copy (primary + sidecar) next to the model and swap at a
    // fast cadence so the deterministic fault schedule runs dry within
    // the bench window.
    const std::string serving_path = model_path + ".serving";
    const auto published = registry.Acquire();
    const Status wrote =
        WriteArtifactAtomic(published->session.artifact(), serving_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    options.swap_path = serving_path;
    if (options.swap_every_seconds <= 0.0) options.swap_every_seconds = 0.05;
  }
  ScoringService service(&registry, batch);
  const auto model = registry.Acquire();
  std::printf("serving %s (%zu users, version %llu, checksum %08x, %s) "
              "[%zu thread(s)]\n",
              model->session.name().c_str(), model->num_users(),
              static_cast<unsigned long long>(model->version),
              model->checksum,
              model->session.scores().Describe().c_str(),
              ThreadPool::Global().num_threads());

  auto report = RunLoadGenerator(registry, service, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  report.value().artifact_bytes = artifact_bytes;
  report.value().float_equiv_bytes = float_equiv_bytes;

  // --auc-pairs N with --target FILE: sampled link-prediction AUC of
  // the served scores (quantized or float) against the observed graph,
  // so the CI leg can assert quantized AUC stays within tolerance of
  // the float run.
  if (auc_pairs > 0) {
    const std::string target_path = flags.Get("target", "");
    if (target_path.empty()) {
      std::fprintf(stderr, "--auc-pairs needs --target FILE; skipping AUC\n");
    } else {
      ParseStats stats;
      auto target = LoadNetwork(target_path, ParseOptions{}, &stats);
      if (!target.ok()) {
        std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
        return 1;
      }
      const SocialGraph observed =
          SocialGraph::FromHeterogeneousNetwork(target.value());
      const auto served = registry.Acquire();
      report.value().auc =
          SampledAuc(served->session, observed, auc_pairs, options.seed);
    }
  }
  std::printf("%s\n", report.value().ToString().c_str());
  const RecoveryStats recovery = service.recovery();
  if (recovery.Total() > 0) {
    std::fprintf(stderr, "serving recoveries: %s\n",
                 recovery.ToString().c_str());
  }
  if (flags.Has("json")) {
    const std::string json_path = flags.Get("json", "BENCH_serve.json");
    const Status written =
        WriteStringToFile(report.value().ToJson() + "\n", json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int ServeBench(const Flags& flags) {
  const auto model_path = flags.GetRequired("model");
  if (!model_path.has_value()) return 2;
  if (flags.Has("mode")) return ServeLoadGen(flags, *model_path);
  const std::size_t num_pairs = flags.Count("pairs", 200000);
  const std::size_t rounds = flags.Count("rounds", 5);
  if (num_pairs == 0 || rounds == 0) {
    std::fprintf(stderr, "--pairs and --rounds must be >= 1\n");
    return 2;
  }

  Stopwatch load_watch;
  auto session = ScoringSession::FromFile(*model_path);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  const double load_seconds = load_watch.ElapsedSeconds();
  const std::size_t n = session.value().num_users();
  std::printf("loaded %s (%zu users, %s) in %.3f s\n",
              session.value().name().c_str(), n,
              session.value().scores().Describe().c_str(),
              load_seconds);

  // Deterministic batch cycling over the upper triangle.
  std::vector<UserPair> batch;
  batch.reserve(num_pairs);
  std::size_t u = 0, v = 1;
  for (std::size_t i = 0; i < num_pairs; ++i) {
    batch.push_back({u, v});
    if (++v >= n) {
      if (++u >= n - 1) u = 0;
      v = u + 1;
    }
  }

  // Warm-up round, then timed rounds.
  double checksum = 0.0;
  auto warmup = session.value().ScorePairs(batch);
  if (!warmup.ok()) {
    std::fprintf(stderr, "%s\n", warmup.status().ToString().c_str());
    return 1;
  }
  double best_pairs_per_sec = 0.0;
  double total_seconds = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    Stopwatch watch;
    auto scores = session.value().ScorePairs(batch);
    const double seconds = watch.ElapsedSeconds();
    if (!scores.ok()) {
      std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
      return 1;
    }
    checksum += scores.value().front() + scores.value().back();
    total_seconds += seconds;
    const double rate = seconds > 0.0
                            ? static_cast<double>(num_pairs) / seconds
                            : static_cast<double>(num_pairs) * 1e9;
    if (rate > best_pairs_per_sec) best_pairs_per_sec = rate;
    std::printf("round %zu: %zu pairs in %.4f s  (%.0f pairs/sec)\n",
                round + 1, num_pairs, seconds, rate);
  }
  const double mean_rate =
      total_seconds > 0.0
          ? static_cast<double>(num_pairs) * static_cast<double>(rounds) /
                total_seconds
          : best_pairs_per_sec;
  std::printf("serve-bench: %.0f pairs/sec mean, %.0f pairs/sec best "
              "(%zu rounds, checksum %.6f)\n",
              mean_rate, best_pairs_per_sec, rounds, checksum);
  return 0;
}

int Evaluate(const Flags& flags) {
  const auto method = MethodFromName(flags.Get("method", "SLAMPRED"));
  if (!method.has_value()) return 2;

  ExperimentOptions options;
  options.num_folds = flags.Count("folds", 5);
  options.slampred.optimization.inner.max_iterations = 60;
  options.slampred.optimization.max_outer_iterations = 2;
  const Status solver_flags = ApplySolverFlags(flags, options.slampred);
  if (!solver_flags.ok()) {
    std::fprintf(stderr, "%s\n", solver_flags.ToString().c_str());
    return 2;
  }
  const Status partition_flags = ApplyPartitionFlags(flags, options.slampred);
  if (!partition_flags.ok()) {
    std::fprintf(stderr, "%s\n", partition_flags.ToString().c_str());
    return 2;
  }
  const Status budget_flags = ApplyBudgetFlags(flags, options.slampred);
  if (!budget_flags.ok()) {
    std::fprintf(stderr, "%s\n", budget_flags.ToString().c_str());
    return 2;
  }
  options.save_model_dir = flags.Get("save-model-dir", "");
  auto bundle = LoadBundle(flags);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  auto runner = ExperimentRunner::Create(bundle.value(), options);
  if (!runner.ok()) {
    std::fprintf(stderr, "%s\n", runner.status().ToString().c_str());
    return 1;
  }
  const std::string rescore_dir = flags.Get("rescore-dir", "");
  auto result = rescore_dir.empty()
                    ? runner.value().RunMethod(*method, 1.0)
                    : runner.value().RescoreMethod(*method, 1.0, rescore_dir);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s over %zu folds%s [%zu thread(s)]:\n", MethodIdName(*method),
              options.num_folds,
              rescore_dir.empty() ? "" : " (rescored from artifacts)",
              ThreadPool::Global().num_threads());
  std::printf("  AUC           : %s\n",
              FormatMeanStd(result.value().auc.mean,
                            result.value().auc.std).c_str());
  std::printf("  Precision@100 : %s\n",
              FormatMeanStd(result.value().precision.mean,
                            result.value().precision.std).c_str());
  if (rescore_dir.empty() && MethodIsSlamPred(*method)) {
    std::printf("fold-0 fit report:\n");
    const int report_rc = EmitFitReport(flags, result.value().fold0_report);
    if (report_rc != 0) return report_rc;
  }
  if (!options.save_model_dir.empty() && rescore_dir.empty()) {
    std::printf("per-fold artifacts written under %s\n",
                options.save_model_dir.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: slampred_cli "
               "<generate|fit|predict|quantize|serve-bench|evaluate> [--flag "
               "value ...]\n       see the header comment of "
               "tools/slampred_cli.cpp\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  std::size_t threads = 0;
  if (flags.Has("threads")) {
    threads = flags.Count("threads", 0, kMaxThreads);
    if (threads == 0) {
      std::fprintf(stderr, "--threads must be >= 1\n");
      return 2;
    }
  }
  // Every command sizes the shared pool up front: from SLAMPRED_THREADS
  // on first use (a value ParseThreadCount rejects reads as unset), then
  // from --threads.
  ThreadPool& pool = ThreadPool::Global();
  if (threads > 0) pool.Resize(threads);
  if (command == "generate") return Generate(flags);
  if (command == "fit") return Fit(flags);
  if (command == "predict") return Predict(flags);
  if (command == "quantize") return Quantize(flags);
  if (command == "serve-bench") return ServeBench(flags);
  if (command == "evaluate") return Evaluate(flags);
  Usage();
  return 2;
}
