// The experiment harness behind Table II and the figure benches: runs
// any of the paper's 12 methods over a k-fold link split of a bundle at
// a given anchor-link sampling ratio, reporting mean±std AUC and
// Precision@K. Folds, evaluation candidate sets and anchor subsamples
// are fixed per runner so every method sees identical conditions.

#ifndef SLAMPRED_EVAL_EXPERIMENT_H_
#define SLAMPRED_EVAL_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "baselines/pl.h"
#include "baselines/scan.h"
#include "core/fit_report.h"
#include "core/slampred.h"
#include "eval/link_split.h"
#include "eval/metrics.h"
#include "graph/aligned_networks.h"
#include "linalg/sparse_tensor3.h"
#include "util/status.h"

namespace slampred {

/// The methods of Table II.
enum class MethodId {
  kSlamPred,
  kSlamPredT,
  kSlamPredH,
  kPl,
  kPlT,
  kPlS,
  kScan,
  kScanT,
  kScanS,
  kJc,
  kCn,
  kPa,
};

/// Display name ("SLAMPRED", "PL-T", ...).
const char* MethodIdName(MethodId method);

/// All twelve methods in Table II's row order.
std::vector<MethodId> AllMethods();

/// True iff the method consumes source-network information (i.e. its
/// results depend on the anchor ratio).
bool MethodUsesSources(MethodId method);

/// True iff the method is a SLAMPRED variant (fits a model whose
/// artifact can be saved and rescored).
bool MethodIsSlamPred(MethodId method);

/// Canonical per-fold artifact path used by the save / rescore pair:
/// `<dir>/<method>_r<permille>_fold<k>.slpmodel`.
std::string FoldModelPath(const std::string& dir, MethodId method,
                          double anchor_ratio, std::size_t fold);

/// Harness controls.
struct ExperimentOptions {
  std::size_t num_folds = 5;
  double negatives_per_positive = 5.0;
  std::size_t precision_k = 100;
  SlamPredConfig slampred;  ///< Base config for the SLAMPRED variants.
  ScanOptions scan;         ///< Base config for SCAN (source mode is set
                            ///< per variant).
  PlOptions pl;             ///< Base config for PL.
  std::uint64_t seed = 123;
  /// When non-empty, every SLAMPRED-variant fold fit also writes its
  /// model artifact to FoldModelPath(save_model_dir, ...) so the fold
  /// can later be rescored without refitting (see RescoreMethod).
  std::string save_model_dir;
};

/// Aggregated result of one (method, anchor ratio) cell.
struct MethodResult {
  MethodId method;
  double anchor_ratio = 1.0;
  MeanStd auc;
  MeanStd precision;
  std::vector<double> auc_folds;
  std::vector<double> precision_folds;
  /// Full fit diagnostics of the fold-0 SLAMPRED fit (phase times,
  /// memory, recoveries); zero-valued for methods without such a fit.
  FitReport fold0_report;
};

/// Runs methods over fixed folds of one aligned bundle.
class ExperimentRunner {
 public:
  /// Prepares folds, evaluation sets and shared caches. Fails if the
  /// target graph cannot be split.
  static Result<ExperimentRunner> Create(const AlignedNetworks& networks,
                                         ExperimentOptions options);

  /// Runs one method at one anchor ratio across all folds.
  Result<MethodResult> RunMethod(MethodId method, double anchor_ratio);

  /// Rescores a SLAMPRED-variant cell from per-fold artifacts saved by
  /// an earlier RunMethod with `save_model_dir` = `model_dir`, without
  /// running any fit stage. AUC / Precision@K are computed over the
  /// same fold evaluation sets and are identical to the fitting run's.
  Result<MethodResult> RescoreMethod(MethodId method, double anchor_ratio,
                                     const std::string& model_dir);

  std::size_t num_folds() const { return folds_.size(); }
  const ExperimentOptions& options() const { return options_; }

 private:
  ExperimentRunner(const AlignedNetworks& networks,
                   ExperimentOptions options);

  Status Prepare();

  /// Scores one fold; returns {auc, precision@k}. When `fold_report`
  /// is non-null and the method fits a SLAMPRED model, the fit's full
  /// diagnostics are written through it.
  Result<std::pair<double, double>> RunFold(MethodId method,
                                            const AlignedNetworks& bundle,
                                            double anchor_ratio,
                                            std::size_t fold_index, Rng& rng,
                                            FitReport* fold_report);

  /// Scores the fold's evaluation pairs; shared by RunFold and
  /// RescoreMethod so both paths grade identically.
  Result<std::pair<double, double>> GradeFold(
      const std::vector<double>& scores, std::size_t fold_index) const;

  /// The anchor-subsampled bundle for `ratio`, built once and cached.
  const AlignedNetworks& BundleAtRatio(double ratio);

  AlignedNetworks networks_;
  ExperimentOptions options_;
  SocialGraph full_target_graph_;
  std::vector<LinkFold> folds_;
  std::vector<SocialGraph> train_graphs_;
  std::vector<EvaluationSet> eval_sets_;
  /// Raw per-fold target feature tensors (full feature set, CSR),
  /// shared by the SCAN/PL variants.
  std::vector<SparseTensor3> target_tensors_;
  /// Raw source tensors (fold-independent, CSR).
  std::vector<SparseTensor3> source_tensors_;
  std::map<int, AlignedNetworks> bundles_by_ratio_key_;
};

}  // namespace slampred

#endif  // SLAMPRED_EVAL_EXPERIMENT_H_
