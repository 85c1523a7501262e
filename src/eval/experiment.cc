#include "eval/experiment.h"

#include <cmath>
#include <utility>
#include <vector>

#include "baselines/unsupervised.h"
#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "eval/anchor_sampler.h"
#include "features/feature_tensor.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

const char* MethodIdName(MethodId method) {
  switch (method) {
    case MethodId::kSlamPred:
      return "SLAMPRED";
    case MethodId::kSlamPredT:
      return "SLAMPRED-T";
    case MethodId::kSlamPredH:
      return "SLAMPRED-H";
    case MethodId::kPl:
      return "PL";
    case MethodId::kPlT:
      return "PL-T";
    case MethodId::kPlS:
      return "PL-S";
    case MethodId::kScan:
      return "SCAN";
    case MethodId::kScanT:
      return "SCAN-T";
    case MethodId::kScanS:
      return "SCAN-S";
    case MethodId::kJc:
      return "JC";
    case MethodId::kCn:
      return "CN";
    case MethodId::kPa:
      return "PA";
  }
  return "?";
}

std::vector<MethodId> AllMethods() {
  return {MethodId::kSlamPred, MethodId::kSlamPredT, MethodId::kSlamPredH,
          MethodId::kPl,       MethodId::kPlT,       MethodId::kPlS,
          MethodId::kScan,     MethodId::kScanT,     MethodId::kScanS,
          MethodId::kJc,       MethodId::kCn,        MethodId::kPa};
}

bool MethodUsesSources(MethodId method) {
  switch (method) {
    case MethodId::kSlamPred:
    case MethodId::kPl:
    case MethodId::kPlS:
    case MethodId::kScan:
    case MethodId::kScanS:
      return true;
    default:
      return false;
  }
}

bool MethodIsSlamPred(MethodId method) {
  return method == MethodId::kSlamPred || method == MethodId::kSlamPredT ||
         method == MethodId::kSlamPredH;
}

std::string FoldModelPath(const std::string& dir, MethodId method,
                          double anchor_ratio, std::size_t fold) {
  const int permille = static_cast<int>(std::lround(anchor_ratio * 1000.0));
  return dir + "/" + MethodIdName(method) + "_r" + std::to_string(permille) +
         "_fold" + std::to_string(fold) + ".slpmodel";
}

Result<ExperimentRunner> ExperimentRunner::Create(
    const AlignedNetworks& networks, ExperimentOptions options) {
  ExperimentRunner runner(networks, std::move(options));
  SLAMPRED_RETURN_NOT_OK(runner.Prepare());
  return runner;
}

ExperimentRunner::ExperimentRunner(const AlignedNetworks& networks,
                                   ExperimentOptions options)
    : networks_(networks),
      options_(std::move(options)),
      full_target_graph_(
          SocialGraph::FromHeterogeneousNetwork(networks.target())) {}

Status ExperimentRunner::Prepare() {
  Rng rng(options_.seed);

  auto folds = SplitLinks(full_target_graph_, options_.num_folds, rng);
  if (!folds.ok()) return folds.status();
  folds_ = std::move(folds).value();

  for (const LinkFold& fold : folds_) {
    train_graphs_.push_back(
        full_target_graph_.WithEdgesRemoved(fold.test_edges));
    auto eval = BuildEvaluationSet(full_target_graph_, fold.test_edges,
                                   options_.negatives_per_positive, rng);
    if (!eval.ok()) return eval.status();
    eval_sets_.push_back(std::move(eval).value());

    // Target tensor for SCAN/PL: full feature set on the training graph.
    target_tensors_.push_back(BuildSparseFeatureTensor(
        networks_.target(), train_graphs_.back(), FeatureTensorOptions{}));
  }

  for (std::size_t k = 0; k < networks_.num_sources(); ++k) {
    const SocialGraph source_graph =
        SocialGraph::FromHeterogeneousNetwork(networks_.source(k));
    source_tensors_.push_back(BuildSparseFeatureTensor(
        networks_.source(k), source_graph, FeatureTensorOptions{}));
  }
  return Status::OK();
}

const AlignedNetworks& ExperimentRunner::BundleAtRatio(double ratio) {
  // Key by permille to make the cache robust to float noise.
  const int key = static_cast<int>(std::lround(ratio * 1000.0));
  auto it = bundles_by_ratio_key_.find(key);
  if (it != bundles_by_ratio_key_.end()) return it->second;
  // A ratio-keyed fork keeps the subsample deterministic per ratio and
  // shared by all methods.
  Rng rng(options_.seed ^ (0xA17C5ULL + static_cast<std::uint64_t>(key)));
  auto inserted = bundles_by_ratio_key_.emplace(
      key, WithAnchorRatio(networks_, ratio, rng));
  return inserted.first->second;
}

Result<MethodResult> ExperimentRunner::RunMethod(MethodId method,
                                                 double anchor_ratio) {
  const AlignedNetworks& bundle = BundleAtRatio(anchor_ratio);
  MethodResult result;
  result.method = method;
  result.anchor_ratio = anchor_ratio;

  // Folds are independent (their own Rng stream, read-only shared
  // state) and run in parallel, one fold per chunk; results land at the
  // fold's own index, so fold order — and hence the mean/std — is
  // unchanged. Nested ParallelFor calls inside a fit fall back to
  // serial automatically.
  const std::size_t num_folds = folds_.size();
  std::vector<double> auc_folds(num_folds, 0.0);
  std::vector<double> precision_folds(num_folds, 0.0);
  std::vector<Status> fold_status(num_folds, Status::OK());
  ParallelFor(0, num_folds, 1, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t f = f0; f < f1; ++f) {
      // Per-(method, ratio, fold) deterministic stream.
      Rng rng(options_.seed ^
              (static_cast<std::uint64_t>(method) * 7919 + f * 104729 +
               static_cast<std::uint64_t>(
                   std::lround(anchor_ratio * 1000.0)) * 15485863));
      // Fold 0 reports its fit's sparse-path footprint; each index has
      // exactly one writing chunk, so the parallel sweep stays
      // deterministic.
      auto fold_result = RunFold(method, bundle, anchor_ratio, f, rng,
                                 f == 0 ? &result.fold0_report : nullptr);
      if (!fold_result.ok()) {
        fold_status[f] = fold_result.status();
        continue;
      }
      auc_folds[f] = fold_result.value().first;
      precision_folds[f] = fold_result.value().second;
    }
  });
  // Surface the first failure in fold order (matching the serial loop's
  // early return).
  for (const Status& st : fold_status) {
    if (!st.ok()) return st;
  }
  result.auc_folds = std::move(auc_folds);
  result.precision_folds = std::move(precision_folds);
  result.auc = ComputeMeanStd(result.auc_folds);
  result.precision = ComputeMeanStd(result.precision_folds);
  return result;
}

Result<MethodResult> ExperimentRunner::RescoreMethod(
    MethodId method, double anchor_ratio, const std::string& model_dir) {
  if (!MethodIsSlamPred(method)) {
    return Status::InvalidArgument(
        std::string("only SLAMPRED variants save rescorable artifacts; "
                    "cannot rescore ") + MethodIdName(method));
  }
  MethodResult result;
  result.method = method;
  result.anchor_ratio = anchor_ratio;
  // Pure artifact lookups per fold — no fit stage runs here.
  for (std::size_t f = 0; f < folds_.size(); ++f) {
    auto session = ScoringSession::FromFile(
        FoldModelPath(model_dir, method, anchor_ratio, f));
    if (!session.ok()) return session.status();
    auto scores = session.value().ScorePairs(eval_sets_[f].pairs);
    if (!scores.ok()) return scores.status();
    auto graded = GradeFold(scores.value(), f);
    if (!graded.ok()) return graded.status();
    result.auc_folds.push_back(graded.value().first);
    result.precision_folds.push_back(graded.value().second);
  }
  result.auc = ComputeMeanStd(result.auc_folds);
  result.precision = ComputeMeanStd(result.precision_folds);
  return result;
}

Result<std::pair<double, double>> ExperimentRunner::RunFold(
    MethodId method, const AlignedNetworks& bundle, double anchor_ratio,
    std::size_t fold_index, Rng& rng, FitReport* fold_report) {
  const SocialGraph& train_graph = train_graphs_[fold_index];
  const EvaluationSet& eval = eval_sets_[fold_index];
  const std::vector<UserPair>& test_edges = folds_[fold_index].test_edges;

  Result<std::vector<double>> scores =
      Status::Internal("method not dispatched");

  switch (method) {
    case MethodId::kSlamPred:
    case MethodId::kSlamPredT:
    case MethodId::kSlamPredH: {
      SlamPredConfig config = options_.slampred;
      if (method == MethodId::kSlamPredT) {
        config.use_sources = false;
      } else if (method == MethodId::kSlamPredH) {
        config.use_sources = false;
        config.use_attributes = false;
      }
      config.seed = rng.NextUint64();
      SlamPred model(config);
      SLAMPRED_RETURN_NOT_OK(model.Fit(bundle, train_graph));
      if (fold_report != nullptr) *fold_report = MakeFitReport(model);
      if (!options_.save_model_dir.empty()) {
        auto artifact = MakeModelArtifact(model);
        if (!artifact.ok()) return artifact.status();
        SLAMPRED_RETURN_NOT_OK(SaveModelArtifact(
            artifact.value(),
            FoldModelPath(options_.save_model_dir, method, anchor_ratio,
                          fold_index)));
      }
      scores = model.ScorePairs(eval.pairs);
      break;
    }
    case MethodId::kPl:
    case MethodId::kPlT:
    case MethodId::kPlS: {
      PlOptions pl_options = options_.pl;
      pl_options.feature_source =
          method == MethodId::kPl
              ? FeatureSource::kBoth
              : (method == MethodId::kPlT ? FeatureSource::kTargetOnly
                                          : FeatureSource::kSourceOnly);
      std::vector<SparseTensor3> raw_tensors;
      raw_tensors.push_back(target_tensors_[fold_index]);
      for (const SparseTensor3& t : source_tensors_) raw_tensors.push_back(t);
      Pl model(pl_options);
      SLAMPRED_RETURN_NOT_OK(
          model.Fit(bundle, train_graph, raw_tensors, test_edges, rng));
      scores = model.ScorePairs(eval.pairs);
      break;
    }
    case MethodId::kScan:
    case MethodId::kScanT:
    case MethodId::kScanS: {
      ScanOptions scan_options = options_.scan;
      scan_options.feature_source =
          method == MethodId::kScan
              ? FeatureSource::kBoth
              : (method == MethodId::kScanT ? FeatureSource::kTargetOnly
                                            : FeatureSource::kSourceOnly);
      std::vector<SparseTensor3> raw_tensors;
      raw_tensors.push_back(target_tensors_[fold_index]);
      for (const SparseTensor3& t : source_tensors_) raw_tensors.push_back(t);
      Scan model(scan_options);
      SLAMPRED_RETURN_NOT_OK(
          model.Fit(bundle, train_graph, raw_tensors, test_edges, rng));
      scores = model.ScorePairs(eval.pairs);
      break;
    }
    case MethodId::kJc: {
      scores = JcPredictor(train_graph).ScorePairs(eval.pairs);
      break;
    }
    case MethodId::kCn: {
      scores = CnPredictor(train_graph).ScorePairs(eval.pairs);
      break;
    }
    case MethodId::kPa: {
      scores = PaPredictor(train_graph).ScorePairs(eval.pairs);
      break;
    }
  }
  if (!scores.ok()) return scores.status();
  return GradeFold(scores.value(), fold_index);
}

Result<std::pair<double, double>> ExperimentRunner::GradeFold(
    const std::vector<double>& scores, std::size_t fold_index) const {
  const EvaluationSet& eval = eval_sets_[fold_index];
  auto auc = ComputeAuc(scores, eval.labels);
  if (!auc.ok()) return auc.status();
  auto precision = ComputePrecisionAtK(scores, eval.labels,
                                       options_.precision_k);
  if (!precision.ok()) return precision.status();
  return std::make_pair(auc.value(), precision.value());
}

}  // namespace slampred
