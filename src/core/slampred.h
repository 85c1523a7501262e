// SLAMPRED: Sparse Low-rAnk Matrix estimation based PREDiction — the
// paper's primary contribution, assembled from the substrate modules:
//
//   1. intimacy feature tensors per network     (features/)
//   2. domain adaptation: the source networks'  (embedding/)
//      features projected via Theorem 1 and
//      mapped into target coordinates, summed
//      with the target's raw ones into the
//      CCCP gradient G (built once, in CSR)
//   3. sparse + low-rank matrix estimation by   (optim/)
//      proximal-operator CCCP (Algorithm 1)
//
// A fitted model keeps only its predictor S; the feature tensors and G
// are fit transients.
//
// The same class covers the paper's variants through its config:
//   SLAMPRED    — everything (default)
//   SLAMPRED-T  — target network only (use_sources = false)
//   SLAMPRED-H  — target structure only (use_sources = false,
//                 use_attributes = false)

#ifndef SLAMPRED_CORE_SLAMPRED_H_
#define SLAMPRED_CORE_SLAMPRED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/link_predictor.h"
#include "core/score_source.h"
#include "features/feature_tensor.h"
#include "graph/aligned_networks.h"
#include "graph/partitioner.h"
#include "graph/social_graph.h"
#include "optim/cccp.h"
#include "optim/solver_backend.h"
#include "util/status.h"

namespace slampred {

/// Full model configuration; the defaults are the paper's Section IV
/// settings (μ = 1, θ = 0.001, τ = γ = 1, αs analysed separately).
struct SlamPredConfig {
  /// Weight αᵗ of the target network's intimacy term.
  double alpha_target = 1.0;
  /// Weights α^k, one per aligned source network (missing entries
  /// default to the last given value, or 1.0 if empty).
  std::vector<double> alpha_sources = {1.0};
  /// Anchor-alignment cost weight μ (Theorem 1).
  double mu = 1.0;
  /// Sparsity regularization weight γ. (The paper quotes γ = 1 for its
  /// unnormalised loss; with this library's [0,1]-normalised features
  /// γ ≈ 0.3 is the equivalent operating point — larger values trade
  /// AUC for top-K precision, see the EXP-A1 ablation bench.)
  double gamma = 0.3;
  /// Low-rank (nuclear norm) regularization weight τ (same scale caveat
  /// as γ; τ ≈ 6 plays the role of the paper's τ = 1).
  double tau = 6.0;
  /// Latent feature-space dimension c.
  std::size_t latent_dim = 5;

  /// Use attribute + structural intimacy features (false = -H variant,
  /// structure only).
  bool use_attributes = true;
  /// Transfer from aligned source networks (false = -T / -H variants).
  bool use_sources = true;
  /// Project the source features through Theorem 1 (false = the EXP-A2
  /// ablation: raw source features pass through the anchors unadapted).
  /// The target's own features are never projected (DESIGN.md §5,
  /// deviation 5).
  bool domain_adaptation = true;

  FeatureTensorOptions features;
  CccpOptions optimization;

  /// Iterate representation of the CCCP solve: the dense oracle or the
  /// factored low-rank path (S = U·Vᵀ, O(n·r²) prox). The factored
  /// backend ignores project_unit_box / gamma's entry-wise prox (see
  /// DESIGN.md §13).
  SolverBackend solver_backend = SolverBackend::kDense;
  /// Range-sketch size of the factored backend (rank r plus
  /// oversampling).
  FactoredSolverOptions factored;

  /// Hierarchical partitioned solve (DESIGN.md "Hierarchical
  /// partitioned solve"): mode kAuto clusters the training structure
  /// and runs one independent sub-fit per cluster (fanned out over the
  /// thread pool), then a boundary-refinement pass scores cross-cluster
  /// pairs. kNone (the default) is the monolithic solve. A partition
  /// that yields a single cluster reproduces the monolithic fit
  /// bit-exactly.
  PartitionOptions partition;

  /// Seed for the model's internal sampling (embedding instances).
  std::uint64_t seed = 7;
};

/// Convenience configs for the paper's variants.
SlamPredConfig SlamPredTargetOnlyConfig();
SlamPredConfig SlamPredHomogeneousConfig();

/// Display name of the variant a config encodes ("SLAMPRED",
/// "SLAMPRED-T" or "SLAMPRED-H") — shared by SlamPred::name() and the
/// artifact-backed ScoringSession.
const char* SlamPredVariantName(const SlamPredConfig& config);

/// Wall-clock breakdown of the last Fit, surfaced by the CLI and the
/// Figure-3 bench next to the recovery stats. `svd_seconds` is the time
/// spent inside SVD/eigen kernels across all phases (it overlaps the
/// other entries rather than adding to them).
struct FitPhaseTimes {
  double features_seconds = 0.0;
  double embedding_seconds = 0.0;
  double cccp_seconds = 0.0;
  double svd_seconds = 0.0;
  double total_seconds = 0.0;
  /// Wall time of the partition stage (0 for a monolithic fit). In a
  /// partitioned fit, cccp_seconds covers the whole partitioned solve
  /// (per-cluster sub-fits plus the boundary refinement); per-cluster
  /// breakdowns live in PartitionStats.
  double partition_seconds = 0.0;
};

/// Memory footprint of the last Fit's sparse data path, surfaced next to
/// FitPhaseTimes by the CLI and the Figure-3 bench. All `*_bytes` are
/// CSR heap bytes.
struct FitMemoryStats {
  std::size_t adjacency_nnz = 0;        ///< nnz(Aᵗ).
  std::size_t adjacency_bytes = 0;      ///< CSR bytes of Aᵗ.
  std::size_t raw_tensor_nnz = 0;       ///< Σ_k nnz(X^k) (features phase).
  std::size_t raw_tensor_bytes = 0;
  /// nnz(G), the CCCP gradient G = Σ_k α_k Σ_c X̂^k(c,:,:) the
  /// embedding phase builds (the name predates G).
  std::size_t adapted_tensor_nnz = 0;
  std::size_t adapted_tensor_bytes = 0;
  /// Heap bytes of the solver iterate: n²·8 for the dense backend, the
  /// two factor matrices for the factored one — the n³-to-n·r² story in
  /// one number.
  std::size_t iterate_bytes = 0;
  /// Factor rank of the fitted iterate (0 for the dense backend).
  std::size_t solver_rank = 0;

  /// One-line human-readable summary for CLI / bench output.
  std::string ToString() const;
};

/// The SLAMPRED estimator. Usage:
///   SlamPred model(config);
///   SLAMPRED_RETURN_NOT_OK(model.Fit(networks, training_graph));
///   double score = model.Score(u, v).value();
///
/// Fit delegates to the staged pipeline of core/fit_pipeline.h
/// (FeatureStage → EmbeddingStage → SolveStage over one FitContext);
/// every stage holds this config, and the -T/-H variants are the
/// feature stage's use_sources / use_attributes.
class SlamPred : public LinkPredictor {
 public:
  explicit SlamPred(SlamPredConfig config = {});

  /// Fits the predictor matrix S on the bundle. `target_structure` is
  /// the observed (training) target graph; held-out links must already
  /// be removed from it. Source networks use their full graphs.
  Status Fit(const AlignedNetworks& networks,
             const SocialGraph& target_structure);

  /// The fitted predictor S (null before the first successful Fit): a
  /// dense matrix, U·Vᵀ factors, or the sharded composite of a
  /// partitioned fit. Artifacts made from the model share it.
  const std::shared_ptr<const ScoreSource>& scores() const { return scores_; }

  /// True once a partitioned Fit (config.partition.mode == kAuto) has
  /// succeeded: scores() is then the sharded composite.
  bool partitioned() const {
    return fitted() && config_.partition.mode == PartitionMode::kAuto;
  }

  /// Partition summary and per-cluster solve timings of a partitioned
  /// Fit (zeroed otherwise).
  const PartitionStats& partition_stats() const { return partition_stats_; }

  /// Number of users the fitted predictor covers (0 before Fit).
  std::size_t NumUsersFitted() const {
    return fitted() ? scores_->num_users() : 0;
  }

  /// True once Fit has succeeded. A failed refit keeps the previous
  /// fit's scores.
  bool fitted() const { return scores_ != nullptr; }

  /// Confidence score of the potential link (u, v). Fails with
  /// kFailedPrecondition before Fit and kOutOfRange when either user id
  /// falls outside the fitted S.
  Result<double> Score(std::size_t u, std::size_t v) const;

  /// Optimisation trace of the last Fit (drives the Figure-3 series).
  const CccpTrace& trace() const { return trace_; }

  /// Per-phase wall times of the last Fit.
  const FitPhaseTimes& phase_times() const { return phase_times_; }

  /// Sparse-path memory footprint of the last Fit.
  const FitMemoryStats& memory_stats() const { return memory_stats_; }

  std::string name() const override;
  Result<std::vector<double>> ScorePairs(
      const std::vector<UserPair>& pairs) const override;

  const SlamPredConfig& config() const { return config_; }

 private:
  SlamPredConfig config_;
  std::shared_ptr<const ScoreSource> scores_;
  PartitionStats partition_stats_;
  CccpTrace trace_;
  FitPhaseTimes phase_times_;
  FitMemoryStats memory_stats_;
};

}  // namespace slampred

#endif  // SLAMPRED_CORE_SLAMPRED_H_
