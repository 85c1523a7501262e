#include "core/fit_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/score_shards.h"
#include "embedding/domain_adapter.h"
#include "graph/cluster_extract.h"
#include "optim/factored_solver.h"
#include "optim/objective.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace slampred {

Status FeatureStage::Run(FitContext& context) const {
  const AlignedNetworks& networks = *context.networks;
  context.feature_options = config_.features;
  if (!config_.use_attributes) {
    context.feature_options.word_similarity = false;
    context.feature_options.location_similarity = false;
    context.feature_options.time_similarity = false;
  }

  context.raw_tensors.clear();
  context.raw_tensors.push_back(BuildSparseFeatureTensor(
      networks.target(), *context.target_structure, context.feature_options));

  // Without a single anchor link nothing can transfer and the projection
  // has no cross-network constraints, so an unaligned bundle degrades to
  // the target-only variant (matching Table II's ratio-0.0 column, where
  // SLAMPRED equals SLAMPRED-T).
  bool any_anchors = false;
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    if (networks.anchors(k).size() > 0) {
      any_anchors = true;
      break;
    }
  }
  context.transfer =
      config_.use_sources && networks.num_sources() > 0 && any_anchors;
  if (context.transfer) {
    for (std::size_t k = 0; k < networks.num_sources(); ++k) {
      const SocialGraph source_graph =
          SocialGraph::FromHeterogeneousNetwork(networks.source(k));
      context.raw_tensors.push_back(BuildSparseFeatureTensor(
          networks.source(k), source_graph, context.feature_options));
    }
  }

  for (const SparseTensor3& tensor : context.raw_tensors) {
    context.memory_stats.raw_tensor_nnz += tensor.TotalNnz();
    context.memory_stats.raw_tensor_bytes += tensor.EstimatedBytes();
  }
  return Status::OK();
}

Status EmbeddingStage::Run(FitContext& context) const {
  if (context.raw_tensors.empty()) {
    return Status::FailedPrecondition(
        "embedding stage needs raw tensors (run the feature stage first)");
  }
  // Intimacy weights: αᵗ, then α^k per transferred source. Each weight is
  // divided by its network's slice count so Σ_c X̂(c,:,:) stays on the
  // same [0, 1] scale regardless of how many feature slices a network
  // contributes — otherwise the intimacy gradient would drown the
  // Frobenius loss and saturate every score at the box bound.
  const SparseTensor3& target = context.raw_tensors[0];
  const double target_weight = config_.alpha_target * kIntimacyScale /
                               std::max<double>(1.0, target.dim0());

  // The solve reads the target's own features raw (DESIGN.md §5,
  // deviation 5); only the sources are brought into target coordinates
  // — through the Theorem-1 projection, which is still learned jointly
  // with the target's instances, or unadapted for the EXP-A2 ablation.
  std::vector<CsrMatrix> sources;
  std::vector<double> source_weights;
  if (context.transfer) {
    DomainAdapterOptions options;
    options.projection.mu = config_.mu;
    options.projection.latent_dim =
        std::min(config_.latent_dim, NumFeatures(context.feature_options));
    Rng rng(config_.seed);
    auto adapted =
        config_.domain_adaptation
            ? AdaptDomains(*context.networks, *context.target_structure,
                           context.raw_tensors, options, rng)
            : PassthroughAdapt(*context.networks, context.raw_tensors);
    if (!adapted.ok()) return adapted.status();
    sources = std::move(adapted).value().slice_sums;
    for (std::size_t k = 0; k < sources.size(); ++k) {
      double alpha = 1.0;
      if (!config_.alpha_sources.empty()) {
        alpha = k < config_.alpha_sources.size() ? config_.alpha_sources[k]
                                                 : config_.alpha_sources.back();
      }
      const std::size_t slices = config_.domain_adaptation
                                     ? options.projection.latent_dim
                                     : context.raw_tensors[k + 1].dim0();
      source_weights.push_back(alpha * kIntimacyScale /
                               std::max<double>(1.0, slices));
    }
    // The slice sums carry everything G needs of the sources, so their
    // raw tensors go before G is built; `target` (element 0) stays.
    context.raw_tensors.erase(context.raw_tensors.begin() + 1,
                              context.raw_tensors.end());
  }

  context.intimacy_gradient =
      BuildIntimacyGradientCsr(target, target_weight, sources, source_weights);
  context.raw_tensors.clear();
  context.memory_stats.adapted_tensor_nnz += context.intimacy_gradient.nnz();
  context.memory_stats.adapted_tensor_bytes +=
      context.intimacy_gradient.EstimatedBytes();
  return Status::OK();
}

Status SolveStage::Run(FitContext& context) const {
  const std::size_t n = context.networks->target().NumUsers();
  if (context.intimacy_gradient.rows() != n ||
      context.intimacy_gradient.cols() != n) {
    return Status::FailedPrecondition(
        "solve stage needs the intimacy gradient (run the embedding stage "
        "first)");
  }
  const CsrMatrix adjacency = context.target_structure->AdjacencyCsr();
  context.memory_stats.adjacency_nnz = adjacency.nnz();
  context.memory_stats.adjacency_bytes = adjacency.EstimatedBytes();
  context.trace = CccpTrace();

  // The objective takes G over from the context.
  if (config_.solver_backend == SolverBackend::kFactored) {
    // G stays CSR, so nothing n²-sized is ever materialised.
    FactoredObjective objective;
    objective.a = adjacency;
    objective.grad_v = std::exchange(context.intimacy_gradient, CsrMatrix());
    objective.gamma = config_.gamma;
    objective.tau = config_.tau;

    auto solution = SolveCccpFactored(std::move(objective),
                                      config_.optimization, config_.factored,
                                      &context.trace);
    if (!solution.ok()) return solution.status();
    context.memory_stats.iterate_bytes = solution.value().EstimatedBytes();
    context.memory_stats.solver_rank = solution.value().rank();
    context.scores =
        std::make_shared<FactoredScores>(std::move(solution).value());
    return Status::OK();
  }

  // Assemble and solve the sparse + low-rank estimation (Algorithm 1).
  Objective objective;
  objective.a = adjacency;
  objective.grad_v =
      std::exchange(context.intimacy_gradient, CsrMatrix()).ToDense();
  objective.gamma = config_.gamma;
  objective.tau = config_.tau;

  auto solution = SolveCccp(objective, config_.optimization, &context.trace);
  if (!solution.ok()) return solution.status();
  context.scores = std::make_shared<DenseScores>(std::move(solution).value());
  context.memory_stats.iterate_bytes = context.scores->EstimatedBytes();
  return Status::OK();
}

Status PartitionStage::Run(FitContext& context) const {
  auto partition = PartitionGraph(*context.target_structure, options_);
  if (!partition.ok()) return partition.status();
  context.partition = std::move(partition).value();
  context.partition_stats = context.partition.stats;
  return Status::OK();
}

namespace {

// Everything one cluster's sub-fit produces. One ParallelFor index
// writes one slot, so the fan-out needs no locking.
struct ClusterFitResult {
  Status status = Status::OK();
  ModelShard shard;
  CccpTrace trace;
  FitMemoryStats memory;
  double seconds = 0.0;
  bool retried = false;
};

// One attempt at one cluster's sub-fit: extract the induced bundle and
// run the full monolithic pipeline on it. The sub-config never
// partitions again, remaps the per-source weights onto the sources that
// survived extraction, and clamps the factored rank to the cluster
// size. A cluster covering every user keeps the config untouched — the
// sub-fit is then the monolithic fit, bit for bit.
Status FitClusterOnce(const SlamPredConfig& model_config,
                      const FitContext& context,
                      const std::vector<std::size_t>& members,
                      std::size_t cluster, ClusterFitResult& out) {
  // The "fit.cluster" site fails one cluster's sub-fit, so chaos tests
  // can watch the retry / surfaced-error path.
  SLAMPRED_RETURN_NOT_OK(InjectedFaultStatus(
      "fit.cluster", "cluster " + std::to_string(cluster) + ": "));
  auto bundle = ExtractClusterBundle(*context.networks,
                                     *context.target_structure, members);
  if (!bundle.ok()) return bundle.status();

  const bool proper_subset =
      members.size() < context.networks->target().NumUsers();
  SlamPredConfig sub = model_config;
  sub.partition = PartitionOptions{};
  if (proper_subset && !model_config.alpha_sources.empty()) {
    std::vector<double> alphas;
    for (const std::size_t k : bundle.value().kept_sources) {
      alphas.push_back(k < model_config.alpha_sources.size()
                           ? model_config.alpha_sources[k]
                           : model_config.alpha_sources.back());
    }
    if (!alphas.empty()) sub.alpha_sources = std::move(alphas);
  }
  if (proper_subset && sub.solver_backend == SolverBackend::kFactored) {
    sub.factored.rank = std::min(sub.factored.rank, members.size());
  }

  FitContext sub_context;
  sub_context.networks = &bundle.value().networks;
  sub_context.target_structure = &bundle.value().structure;
  const auto stages = BuildFitPipeline(sub);
  const Status run = RunFitPipeline(stages, sub_context);
  out.trace = std::move(sub_context.trace);
  out.memory = sub_context.memory_stats;
  SLAMPRED_RETURN_NOT_OK(run);

  out.shard.users.clear();
  out.shard.users.reserve(members.size());
  for (const std::size_t u : members) {
    out.shard.users.push_back(static_cast<std::uint32_t>(u));
  }
  out.shard.block = std::move(sub_context.scores);
  return Status::OK();
}

// Per-row cap on boundary-refinement candidates; bounds the refinement
// CSR on hub-heavy graphs.
constexpr std::size_t kMaxBoundaryCandidates = 512;

// The boundary-refinement pass: scores the cross-cluster pairs the
// per-cluster blocks cannot see. Candidates for user u are the
// cross-cluster users within two hops (cut-edge endpoints and their
// neighbors), capped per row; the refined score averages what u's
// cluster thinks of v's neighborhood with what v's cluster thinks of
// u's:
//
//   refined(u, v) = ½ · ( avg_{w ∈ N(v), C(w)=C(u)} S(u, w)
//                       + avg_{w ∈ N(u), C(w)=C(v)} S(v, w) )
//
// (an empty side contributes 0; a pair with both sides empty is left
// unscored). Rows of the upper triangle are built in parallel, then
// mirrored into a symmetric CSR.
CsrMatrix RefineBoundary(const ShardedScores& shards,
                         const std::vector<std::uint32_t>& cluster_of,
                         const SocialGraph& structure) {
  const std::size_t n = structure.num_users();
  const CsrMatrix upper = CsrMatrix::FromRowFill(
      n, n, 8, [&](std::size_t row_begin, std::size_t row_end,
                   CsrRowWriter& out) {
    std::vector<std::size_t> candidates;
    for (std::size_t u = row_begin; u < row_end; ++u) {
      const std::uint32_t cu = cluster_of[u];
      candidates.clear();
      for (const std::size_t v : structure.Neighbors(u)) {
        if (v > u && cluster_of[v] != cu) candidates.push_back(v);
        for (const std::size_t w : structure.Neighbors(v)) {
          if (w > u && cluster_of[w] != cu) candidates.push_back(w);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      if (candidates.size() > kMaxBoundaryCandidates) {
        candidates.resize(kMaxBoundaryCandidates);
      }
      for (const std::size_t v : candidates) {
        const std::uint32_t cv = cluster_of[v];
        double sum_u = 0.0, sum_v = 0.0;
        std::size_t count_u = 0, count_v = 0;
        for (const std::size_t w : structure.Neighbors(v)) {
          if (w != u && cluster_of[w] == cu) {
            sum_u += shards.At(u, w);
            ++count_u;
          }
        }
        for (const std::size_t w : structure.Neighbors(u)) {
          if (w != v && cluster_of[w] == cv) {
            sum_v += shards.At(v, w);
            ++count_v;
          }
        }
        if (count_u + count_v == 0) continue;
        out.Push(v, 0.5 * ((count_u > 0 ? sum_u / count_u : 0.0) +
                           (count_v > 0 ? sum_v / count_v : 0.0)));
      }
      out.EndRow();
    }
  });
  // The triangles are disjoint, so every merged entry is one side's
  // value, exactly.
  return upper.AddScaled(upper.Transposed(), 1.0);
}

}  // namespace

Status PartitionedSolveStage::Run(FitContext& context) const {
  const std::size_t n = context.networks->target().NumUsers();
  if (context.partition.num_users() != n ||
      context.partition.num_clusters() == 0) {
    return Status::FailedPrecondition(
        "partitioned solve needs a partition (run the partition stage "
        "first)");
  }
  const std::size_t num_clusters = context.partition.num_clusters();
  std::vector<ClusterFitResult> results(num_clusters);

  // Fan the independent sub-fits out over the pool, one cluster per
  // chunk. Sub-fit parallelism serialises inside the outer region
  // (nested ParallelFor), so every thread count computes the same
  // numbers. A failed cluster gets exactly one resume before its error
  // surfaces; the retry is counted as a checkpoint resume.
  ParallelFor(0, num_clusters, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      ClusterFitResult& result = results[c];
      Stopwatch watch;
      result.status = FitClusterOnce(config_, context,
                                     context.partition.clusters[c], c, result);
      if (!result.status.ok()) {
        result.retried = true;
        result.status = FitClusterOnce(
            config_, context, context.partition.clusters[c], c, result);
      }
      result.seconds = watch.ElapsedSeconds();
    }
  });

  context.partition_stats = context.partition.stats;
  context.partition_stats.cluster_solve_seconds.assign(num_clusters, 0.0);
  context.trace = CccpTrace();
  context.trace.converged = true;
  Status first_failure = Status::OK();
  std::size_t max_rank = 0;
  std::vector<ModelShard> shards;
  shards.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    ClusterFitResult& result = results[c];
    context.partition_stats.cluster_solve_seconds[c] = result.seconds;
    context.trace.recovery.Merge(result.trace.recovery);
    if (result.retried) ++context.trace.recovery.checkpoint_resumes;
    context.trace.converged =
        context.trace.converged && result.trace.converged;
    context.trace.outer_iterations = std::max(
        context.trace.outer_iterations, result.trace.outer_iterations);
    // Sparse inputs sum across clusters.
    context.memory_stats.adjacency_nnz += result.memory.adjacency_nnz;
    context.memory_stats.adjacency_bytes += result.memory.adjacency_bytes;
    context.memory_stats.raw_tensor_nnz += result.memory.raw_tensor_nnz;
    context.memory_stats.raw_tensor_bytes += result.memory.raw_tensor_bytes;
    context.memory_stats.adapted_tensor_nnz +=
        result.memory.adapted_tensor_nnz;
    context.memory_stats.adapted_tensor_bytes +=
        result.memory.adapted_tensor_bytes;
    max_rank = std::max(max_rank, result.memory.solver_rank);
    if (!result.status.ok() && first_failure.ok()) {
      first_failure = Status(
          result.status.code(),
          "cluster " + std::to_string(c) + " of " +
              std::to_string(num_clusters) + ": " + result.status.message());
    }
    shards.push_back(std::move(result.shard));
  }
  SLAMPRED_RETURN_NOT_OK(first_failure);

  // The refinement reads the blocks alone; the model is the blocks
  // plus the refined boundary.
  auto blocks = ShardedScores::Create(std::move(shards), nullptr, n);
  if (!blocks.ok()) return blocks.status();
  Stopwatch refine_watch;
  auto sharded = ShardedScores::Create(
      blocks.value()->shards(),
      std::make_shared<BoundaryScores>(
          RefineBoundary(*blocks.value(), context.partition.cluster_of,
                         *context.target_structure)),
      n);
  if (!sharded.ok()) return sharded.status();
  context.partition_stats.refine_seconds = refine_watch.ElapsedSeconds();
  context.scores = std::move(sharded).value();

  context.memory_stats.iterate_bytes = context.scores->EstimatedBytes();
  context.memory_stats.solver_rank = max_rank;
  return Status::OK();
}

std::vector<std::unique_ptr<FitStage>> BuildFitPipeline(
    const SlamPredConfig& config) {
  std::vector<std::unique_ptr<FitStage>> stages;
  if (config.partition.mode == PartitionMode::kAuto) {
    stages.push_back(std::make_unique<PartitionStage>(config.partition));
    stages.push_back(std::make_unique<PartitionedSolveStage>(config));
    return stages;
  }
  stages.push_back(std::make_unique<FeatureStage>(config));
  stages.push_back(std::make_unique<EmbeddingStage>(config));
  stages.push_back(std::make_unique<SolveStage>(config));
  return stages;
}

Status RunFitPipeline(const std::vector<std::unique_ptr<FitStage>>& stages,
                      FitContext& context) {
  if (context.networks == nullptr || context.target_structure == nullptr) {
    return Status::InvalidArgument("fit context is missing its inputs");
  }
  if (context.target_structure->num_users() !=
      context.networks->target().NumUsers()) {
    return Status::InvalidArgument(
        "target structure must cover the target's users");
  }
  for (const auto& stage : stages) {
    const std::string name = stage->name();
    SLAMPRED_RETURN_NOT_OK(
        InjectedFaultStatus("fit." + name, "fit stage '" + name + "': "));
    Stopwatch watch;
    const Status status = stage->Run(context);
    stage->PhaseSlot(context.phase_times) += watch.ElapsedSeconds();
    SLAMPRED_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

}  // namespace slampred
