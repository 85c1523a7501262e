// The staged SLAMPRED fit pipeline. SlamPred::Fit is a thin driver over
// three stages sharing one FitContext:
//
//   FeatureStage    raw intimacy tensors per network        (features/)
//   EmbeddingStage  the CCCP gradient G, in CSR             (embedding/)
//   SolveStage      sparse + low-rank CCCP estimation       (optim/)
//
// Every stage holds the SlamPredConfig it was built from, so the
// paper's -T/-H variants are stage *configuration* (use_sources /
// use_attributes, read by FeatureStage) rather than branches buried in
// one monolithic Fit. The solve reads the features only through the
// constant gradient G = Σ_k α_k Σ_c X̂^k(c,:,:), so EmbeddingStage is
// the one place that decides what the solve reads: it sums the
// target's raw slices and one slice sum per transferred source
// (Theorem-1 projected, or passed through for the EXP-A2 ablation) into
// G once, then releases the raw tensors. Stages are independently
// runnable — tests drive a single stage on a hand-built context, and
// RunFitPipeline accepts any subset in order — and independently
// fault-injectable through the per-stage sites "fit.features" /
// "fit.embedding" / "fit.solve" (fail kinds map to the matching Status;
// poison kinds surface as kNumericalError).
//
// RunFitPipeline times every stage into its FitPhaseTimes slot; memory
// accounting is done by the stage that materialises each tensor.

#ifndef SLAMPRED_CORE_FIT_PIPELINE_H_
#define SLAMPRED_CORE_FIT_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/score_source.h"
#include "core/slampred.h"
#include "features/feature_tensor.h"
#include "graph/aligned_networks.h"
#include "graph/partitioner.h"
#include "graph/social_graph.h"
#include "linalg/csr_matrix.h"
#include "linalg/sparse_tensor3.h"
#include "optim/cccp.h"
#include "optim/solver_backend.h"
#include "util/status.h"

namespace slampred {

/// Shared state of one fit: the inputs, every intermediate tensor, and
/// the diagnostics the stages accumulate. A context outlives the stages
/// that filled it, so a failed run still carries the stats of the
/// stages that completed.
struct FitContext {
  /// Inputs (non-owning; must outlive the run).
  const AlignedNetworks* networks = nullptr;
  const SocialGraph* target_structure = nullptr;

  /// Set by FeatureStage: the slice selection actually extracted and
  /// whether any source network transfers (sources enabled, present,
  /// and anchored).
  FeatureTensorOptions feature_options;
  bool transfer = false;

  /// raw_tensors[0] = target features on the training structure;
  /// raw_tensors[k>=1] = source k on its own graph (only when
  /// transferring). EmbeddingStage releases the sources as soon as they
  /// are adapted and the target once G exists.
  std::vector<SparseTensor3> raw_tensors;

  /// Set by EmbeddingStage: the constant CCCP gradient G (n_t x n_t),
  /// the solve's only view of the features. SolveStage consumes it.
  CsrMatrix intimacy_gradient;

  /// Set by SolveStage (dense or factored S) or PartitionedSolveStage
  /// (the sharded composite): the fitted predictor, plus its trace.
  std::shared_ptr<const ScoreSource> scores;
  CccpTrace trace;

  /// Set by PartitionStage (partitioned pipeline only): the clustering
  /// of the training structure the per-cluster solves run on.
  GraphPartition partition;

  /// Diagnostics accumulated across stages. `partition_stats` carries
  /// the cluster summary and per-cluster solve timings of a partitioned
  /// run (zeroed in a monolithic one).
  FitPhaseTimes phase_times;
  FitMemoryStats memory_stats;
  PartitionStats partition_stats;
};

/// One pipeline stage. Run() reads and extends the context; it must be
/// safe to call on a context produced by the preceding stages (or a
/// hand-built equivalent in tests).
class FitStage {
 public:
  virtual ~FitStage() = default;

  /// Short stage name; also the suffix of the stage's fault site
  /// ("fit.<name>").
  virtual const char* name() const = 0;

  virtual Status Run(FitContext& context) const = 0;

  /// The FitPhaseTimes field this stage's wall time is recorded in.
  virtual double& PhaseSlot(FitPhaseTimes& times) const = 0;
};

/// Builds the raw intimacy tensors (CSR) and decides `transfer`. The -H
/// variant (use_attributes = false) drops every attribute slice; the
/// -T/-H variants (use_sources = false) skip the source tensors.
class FeatureStage : public FitStage {
 public:
  explicit FeatureStage(SlamPredConfig config) : config_(std::move(config)) {}
  const char* name() const override { return "features"; }
  Status Run(FitContext& context) const override;
  double& PhaseSlot(FitPhaseTimes& times) const override {
    return times.features_seconds;
  }

 private:
  SlamPredConfig config_;
};

/// Multiplier of every intimacy weight α (before the division by the
/// network's slice count). It fixes the scale between the
/// [0,1]-normalised feature maps and the unit-weight regularizers, so
/// the paper's parameter ranges (α ∈ [0, 1], γ = τ = 1) are directly
/// usable (DESIGN.md §5, deviation 6).
inline constexpr double kIntimacyScale = 16.0;

/// Builds G from the raw target tensor plus, per transferred source, its
/// slice sum in target coordinates: Theorem-1 projected, or raw when
/// domain_adaptation is false (EXP-A2). Each network's weight is
/// α · kIntimacyScale divided by its slice count. Releases the raw
/// tensors.
class EmbeddingStage : public FitStage {
 public:
  explicit EmbeddingStage(SlamPredConfig config)
      : config_(std::move(config)) {}
  const char* name() const override { return "embedding"; }
  Status Run(FitContext& context) const override;
  double& PhaseSlot(FitPhaseTimes& times) const override {
    return times.embedding_seconds;
  }

 private:
  SlamPredConfig config_;
};

/// Assembles the objective around G (densified once for the dense
/// backend) and runs Algorithm 1, producing context.scores.
class SolveStage : public FitStage {
 public:
  explicit SolveStage(SlamPredConfig config) : config_(std::move(config)) {}
  const char* name() const override { return "solve"; }
  Status Run(FitContext& context) const override;
  double& PhaseSlot(FitPhaseTimes& times) const override {
    return times.cccp_seconds;
  }

 private:
  SlamPredConfig config_;
};

/// Clusters the training structure (graph/partitioner.h) into
/// context.partition and seeds context.partition_stats. Only part of
/// the pipeline when config.partition.mode == kAuto.
class PartitionStage : public FitStage {
 public:
  explicit PartitionStage(PartitionOptions options)
      : options_(std::move(options)) {}
  const char* name() const override { return "partition"; }
  Status Run(FitContext& context) const override;
  double& PhaseSlot(FitPhaseTimes& times) const override {
    return times.partition_seconds;
  }

 private:
  PartitionOptions options_;
};

/// The partitioned replacement of the whole feature → embedding → solve
/// chain: extracts each cluster's induced sub-bundle, fans independent
/// full SLAMPRED sub-fits out over the thread pool (each guarded by the
/// "fit.cluster" fault site with one checkpoint-resume retry), then
/// rescores cross-cluster candidate pairs in a boundary-refinement pass.
/// Named "solve" so the stage-level "fit.solve" fault site covers both
/// pipelines. Nested sub-fit parallelism serialises inside the outer
/// fan-out, so results are bit-identical for every thread count.
class PartitionedSolveStage : public FitStage {
 public:
  explicit PartitionedSolveStage(SlamPredConfig config)
      : config_(std::move(config)) {}
  const char* name() const override { return "solve"; }
  Status Run(FitContext& context) const override;
  double& PhaseSlot(FitPhaseTimes& times) const override {
    return times.cccp_seconds;
  }

 private:
  SlamPredConfig config_;
};

/// The full pipeline configured from `config`: the three-stage
/// monolithic chain, or PartitionStage → PartitionedSolveStage when
/// config.partition.mode == kAuto.
std::vector<std::unique_ptr<FitStage>> BuildFitPipeline(
    const SlamPredConfig& config);

/// Validates the context's inputs, then runs `stages` in order: each
/// stage is wall-clocked into its PhaseSlot and guarded by the
/// "fit.<name>" fault site; the first failure stops the run (stats of
/// completed stages stay in the context).
Status RunFitPipeline(const std::vector<std::unique_ptr<FitStage>>& stages,
                      FitContext& context);

}  // namespace slampred

#endif  // SLAMPRED_CORE_FIT_PIPELINE_H_
