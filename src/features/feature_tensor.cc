#include "features/feature_tensor.h"

#include <cmath>
#include <utility>
#include <vector>

#include "features/attribute_features.h"
#include "features/meta_path_features.h"
#include "features/structural_features.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace slampred {

std::vector<std::string> FeatureNames(const FeatureTensorOptions& options) {
  std::vector<std::string> names;
  if (options.common_neighbors) names.push_back("common_neighbors");
  if (options.jaccard) names.push_back("jaccard");
  if (options.adamic_adar) names.push_back("adamic_adar");
  if (options.resource_allocation) names.push_back("resource_allocation");
  if (options.preferential_attachment) {
    names.push_back("preferential_attachment");
  }
  if (options.truncated_katz) names.push_back("truncated_katz");
  if (options.word_similarity) names.push_back("word_similarity");
  if (options.location_similarity) names.push_back("location_similarity");
  if (options.time_similarity) names.push_back("time_similarity");
  if (options.meta_paths) {
    for (MetaPath path : AllMetaPaths()) {
      names.push_back(std::string("meta_path_") + MetaPathName(path));
    }
  }
  return names;
}

std::size_t NumFeatures(const FeatureTensorOptions& options) {
  return FeatureNames(options).size();
}

Tensor3 BuildFeatureTensor(const HeterogeneousNetwork& network,
                           const SocialGraph& structure,
                           const FeatureTensorOptions& options) {
  SLAMPRED_CHECK(structure.num_users() == network.NumUsers())
      << "structure graph and network must have the same user set";
  const std::size_t n = network.NumUsers();
  const std::size_t d = NumFeatures(options);
  Tensor3 tensor(d, n, n);

  std::size_t slice = 0;
  auto add = [&](Matrix map) {
    for (std::size_t i = 0; i < n; ++i) map(i, i) = 0.0;
    tensor.SetSlice(slice++, map);
  };

  if (options.common_neighbors) add(CommonNeighborsMap(structure));
  if (options.jaccard) add(JaccardMap(structure));
  if (options.adamic_adar) add(AdamicAdarMap(structure));
  if (options.resource_allocation) add(ResourceAllocationMap(structure));
  if (options.preferential_attachment) {
    add(PreferentialAttachmentMap(structure));
  }
  if (options.truncated_katz) {
    add(TruncatedKatzMap(structure, options.katz_beta));
  }
  if (options.word_similarity) {
    add(AttributeSimilarityMap(network, AttributeKind::kWord));
  }
  if (options.location_similarity) {
    add(AttributeSimilarityMap(network, AttributeKind::kLocation));
  }
  if (options.time_similarity) {
    add(AttributeSimilarityMap(network, AttributeKind::kTimestamp));
  }
  if (options.meta_paths) {
    for (MetaPath path : AllMetaPaths()) {
      add(path == MetaPath::kUserUserUser
              ? StructuralPathSimilarityMap(structure)
              : MetaPathSimilarityMap(network, path));
    }
  }
  SLAMPRED_CHECK(slice == d);

  tensor.NormalizeSlicesMinMax();
  if (options.sqrt_transform) {
    double* td = tensor.data().data();
    ParallelFor(0, tensor.data().size(), GrainForWork(1),
                [&](std::size_t i0, std::size_t i1) {
                  for (std::size_t i = i0; i < i1; ++i) {
                    td[i] = std::sqrt(td[i]);
                  }
                });
  }
  return tensor;
}

SparseTensor3 BuildSparseFeatureTensor(const HeterogeneousNetwork& network,
                                       const SocialGraph& structure,
                                       const FeatureTensorOptions& options) {
  SLAMPRED_CHECK(structure.num_users() == network.NumUsers())
      << "structure graph and network must have the same user set";
  const std::size_t n = network.NumUsers();
  const std::size_t d = NumFeatures(options);
  SparseTensor3 tensor(d, n, n);

  std::size_t slice = 0;
  // The CSR extractors never emit diagonal entries, so the dense path's
  // explicit diagonal zeroing is already satisfied.
  auto add = [&](CsrMatrix map) { tensor.SetSlice(slice++, std::move(map)); };
  // Meta-path fallback: dense extraction, diagonal zeroed, sparsified.
  auto add_dense = [&](Matrix map) {
    for (std::size_t i = 0; i < n; ++i) map(i, i) = 0.0;
    add(CsrMatrix::FromDense(map));
  };

  if (options.common_neighbors) add(CommonNeighborsCsr(structure));
  if (options.jaccard) add(JaccardCsr(structure));
  if (options.adamic_adar) add(AdamicAdarCsr(structure));
  if (options.resource_allocation) add(ResourceAllocationCsr(structure));
  if (options.preferential_attachment) {
    // deg(u)·deg(v) is rank one: keep the degree vector, not its ~n²
    // products (the tensor's transforms keep that form).
    std::vector<double> degrees(n);
    for (std::size_t v = 0; v < n; ++v) {
      degrees[v] = static_cast<double>(structure.Degree(v));
    }
    tensor.SetDegreeSlice(slice++, std::move(degrees));
  }
  if (options.truncated_katz) {
    add(TruncatedKatzCsr(structure, options.katz_beta));
  }
  if (options.word_similarity) {
    add(AttributeSimilarityCsr(network, AttributeKind::kWord));
  }
  if (options.location_similarity) {
    add(AttributeSimilarityCsr(network, AttributeKind::kLocation));
  }
  if (options.time_similarity) {
    add(AttributeSimilarityCsr(network, AttributeKind::kTimestamp));
  }
  if (options.meta_paths) {
    for (MetaPath path : AllMetaPaths()) {
      add_dense(path == MetaPath::kUserUserUser
                    ? StructuralPathSimilarityMap(structure)
                    : MetaPathSimilarityMap(network, path));
    }
  }
  SLAMPRED_CHECK(slice == d);

  tensor.NormalizeSlicesMinMax();
  if (options.sqrt_transform) tensor.ApplySqrt();
  return tensor;
}

}  // namespace slampred
