// Tests for the domain-adaptation pipeline: instance sampling, indicator
// matrices, Laplacians, the Theorem-1 solver and the adapter.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/aligned_generator.h"
#include "embedding/domain_adapter.h"
#include "embedding/indicator_matrices.h"
#include "embedding/laplacian.h"
#include "embedding/link_instance.h"
#include "embedding/projection_solver.h"
#include "features/feature_tensor.h"
#include "graph/cluster_extract.h"
#include "linalg/tensor3.h"

namespace slampred {
namespace {

// Shared small generated bundle for the pipeline tests.
class EmbeddingPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AlignedGeneratorConfig config = DefaultExperimentConfig(17);
    config.population.num_personas = 80;
    auto gen = GenerateAligned(config);
    ASSERT_TRUE(gen.ok());
    generated_ = std::make_unique<GeneratedAligned>(std::move(gen).value());
    target_graph_ = SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.target());
    tensors_.push_back(BuildSparseFeatureTensor(generated_->networks.target(),
                                                target_graph_));
    const SocialGraph source_graph = SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.source(0));
    tensors_.push_back(BuildSparseFeatureTensor(generated_->networks.source(0),
                                                source_graph));
  }

  std::unique_ptr<GeneratedAligned> generated_;
  SocialGraph target_graph_{0};
  std::vector<SparseTensor3> tensors_;
};

TEST_F(EmbeddingPipelineTest, SampleRespectsStructure) {
  Rng rng(3);
  InstanceSampleOptions options;
  options.positives_per_network = 20;
  options.negatives_per_network = 20;
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, options, rng);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  const InstanceSample& s = sample.value();
  EXPECT_EQ(s.num_networks(), 2u);
  ASSERT_EQ(s.network_offsets.size(), 3u);
  EXPECT_EQ(s.network_offsets[0], 0u);
  EXPECT_EQ(s.network_offsets.back(), s.total());
  EXPECT_EQ(s.feature_dims[0], tensors_[0].dim0());

  const SocialGraph source_graph = SocialGraph::FromHeterogeneousNetwork(
      generated_->networks.source(0));
  for (std::size_t i = 0; i < s.total(); ++i) {
    const LinkInstance& inst = s.instances[i];
    EXPECT_LT(inst.u, inst.v);
    const SocialGraph& graph =
        inst.network == 0 ? target_graph_ : source_graph;
    EXPECT_EQ(inst.exists, graph.HasEdge(inst.u, inst.v))
        << "existence label must match the graph";
    EXPECT_EQ(inst.features.size(), s.feature_dims[inst.network]);
  }
}

TEST_F(EmbeddingPipelineTest, SampleContainsBothLabels) {
  Rng rng(5);
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, InstanceSampleOptions{}, rng);
  ASSERT_TRUE(sample.ok());
  std::size_t pos = 0;
  std::size_t neg = 0;
  for (const auto& inst : sample.value().instances) {
    (inst.exists ? pos : neg) += 1;
  }
  EXPECT_GT(pos, 0u);
  EXPECT_GT(neg, 0u);
}

TEST_F(EmbeddingPipelineTest, AlignedIndicatorConnectsAnchoredPairs) {
  Rng rng(7);
  InstanceSampleOptions options;
  options.positives_per_network = 30;
  options.negatives_per_network = 30;
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, options, rng);
  ASSERT_TRUE(sample.ok());
  const InstanceSample& s = sample.value();
  const AnchorLinks& anchors = generated_->networks.anchors(0);
  const CsrMatrix w_a = BuildAlignedIndicator(s, {&anchors});

  EXPECT_GT(w_a.nnz(), 0u) << "mirrored instances must produce alignments";
  // Every marked pair must genuinely be an aligned social link.
  for (std::size_t i = 0; i < w_a.rows(); ++i) {
    for (std::size_t p = w_a.row_ptr()[i]; p < w_a.row_ptr()[i + 1]; ++p) {
      const std::size_t j = w_a.col_idx()[p];
      const LinkInstance& a = s.instances[std::min(i, j)];
      const LinkInstance& b = s.instances[std::max(i, j)];
      EXPECT_EQ(a.network, 0u);
      EXPECT_EQ(b.network, 1u);
      const auto bu = anchors.LeftOf(b.u);
      const auto bv = anchors.LeftOf(b.v);
      ASSERT_TRUE(bu.has_value() && bv.has_value());
      EXPECT_EQ(MakeUserPair(*bu, *bv), (UserPair{a.u, a.v}));
    }
  }
}

TEST_F(EmbeddingPipelineTest, LabelIndicatorsPartitionPairs) {
  Rng rng(9);
  InstanceSampleOptions options;
  options.positives_per_network = 10;
  options.negatives_per_network = 10;
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, options, rng);
  ASSERT_TRUE(sample.ok());
  const InstanceSample& s = sample.value();
  const CsrMatrix w_s = BuildSimilarIndicator(s);
  const CsrMatrix w_d = BuildDissimilarIndicator(s);
  const std::size_t total = s.total();
  // Every off-diagonal pair is in exactly one of W_S, W_D.
  EXPECT_EQ(w_s.nnz() + w_d.nnz(), total * (total - 1));
  for (std::size_t i = 0; i < std::min<std::size_t>(total, 12); ++i) {
    for (std::size_t j = 0; j < std::min<std::size_t>(total, 12); ++j) {
      if (i == j) continue;
      const bool same = s.instances[i].exists == s.instances[j].exists;
      EXPECT_DOUBLE_EQ(w_s.At(i, j), same ? 1.0 : 0.0);
      EXPECT_DOUBLE_EQ(w_d.At(i, j), same ? 0.0 : 1.0);
    }
  }
}

TEST(LaplacianTest, RowSumsAreZero) {
  const CsrMatrix w = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 2.0}, {2, 1, 2.0}});
  const Matrix l = DenseLaplacian(w);
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += l(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(l(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(l(0, 1), -1.0);
}

TEST(LaplacianTest, SandwichMatchesDenseComputation) {
  Rng rng(11);
  const Matrix z = Matrix::RandomGaussian(4, 6, rng);
  const CsrMatrix w = CsrMatrix::FromTriplets(
      6, 6,
      {{0, 1, 1.0}, {1, 0, 1.0}, {2, 3, 0.5}, {3, 2, 0.5}, {4, 5, 2.0},
       {5, 4, 2.0}});
  const Matrix direct = z * DenseLaplacian(w) * z.Transposed();
  const Matrix sandwich = SandwichLaplacian(z, w);
  EXPECT_LT((direct - sandwich).MaxAbs(), 1e-10);
}

TEST_F(EmbeddingPipelineTest, BlockDiagonalZHasBlockStructure) {
  Rng rng(13);
  InstanceSampleOptions options;
  options.positives_per_network = 8;
  options.negatives_per_network = 8;
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, options, rng);
  ASSERT_TRUE(sample.ok());
  const InstanceSample& s = sample.value();
  const Matrix z = BuildBlockDiagonalZ(s);
  EXPECT_EQ(z.rows(), s.feature_dims[0] + s.feature_dims[1]);
  EXPECT_EQ(z.cols(), s.total());
  // Off-block regions are zero: source instances have no target rows.
  for (std::size_t col = s.network_offsets[1]; col < s.total(); ++col) {
    for (std::size_t row = 0; row < s.feature_dims[0]; ++row) {
      EXPECT_DOUBLE_EQ(z(row, col), 0.0);
    }
  }
}

TEST_F(EmbeddingPipelineTest, ProjectionSolverProducesRequestedShape) {
  Rng rng(15);
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, InstanceSampleOptions{}, rng);
  ASSERT_TRUE(sample.ok());
  const CsrMatrix w_a = BuildAlignedIndicator(
      sample.value(), {&generated_->networks.anchors(0)});
  const CsrMatrix w_s = BuildSimilarIndicator(sample.value());
  const CsrMatrix w_d = BuildDissimilarIndicator(sample.value());
  ProjectionOptions options;
  options.latent_dim = 4;
  auto proj = SolveProjections(sample.value(), w_a, w_s, w_d, options);
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  ASSERT_EQ(proj.value().projections.size(), 2u);
  EXPECT_EQ(proj.value().projections[0].rows(), tensors_[0].dim0());
  EXPECT_EQ(proj.value().projections[0].cols(), 4u);
  EXPECT_EQ(proj.value().projections[1].rows(), tensors_[1].dim0());
  // Projections must be non-trivial.
  EXPECT_GT(proj.value().projections[0].MaxAbs(), 0.0);
}

TEST_F(EmbeddingPipelineTest, ProjectionSolverRejectsBadLatentDim) {
  Rng rng(17);
  auto sample = SampleLinkInstances(generated_->networks, target_graph_,
                                    tensors_, InstanceSampleOptions{}, rng);
  ASSERT_TRUE(sample.ok());
  const CsrMatrix w_s = BuildSimilarIndicator(sample.value());
  const CsrMatrix w_d = BuildDissimilarIndicator(sample.value());
  const CsrMatrix w_a = BuildAlignedIndicator(
      sample.value(), {&generated_->networks.anchors(0)});
  ProjectionOptions options;
  options.latent_dim = 10000;
  EXPECT_FALSE(
      SolveProjections(sample.value(), w_a, w_s, w_d, options).ok());
  options.latent_dim = 0;
  EXPECT_FALSE(
      SolveProjections(sample.value(), w_a, w_s, w_d, options).ok());
}

TEST_F(EmbeddingPipelineTest, AdapterOutputsTargetCoordinates) {
  Rng rng(19);
  DomainAdapterOptions options;
  auto adapted = AdaptDomains(generated_->networks, target_graph_, tensors_,
                              options, rng);
  ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
  const std::size_t n = generated_->networks.target().NumUsers();
  // One slice sum per source; the target is never projected.
  ASSERT_EQ(adapted.value().slice_sums.size(),
            generated_->networks.num_sources());
  EXPECT_EQ(adapted.value().slice_sums[0].rows(), n);
  EXPECT_EQ(adapted.value().slice_sums[0].cols(), n);
  // Projections are still learned for every network, and every latent
  // slice carries a separation weight in [0, 1].
  EXPECT_EQ(adapted.value().projections.size(), 2u);
  const Vector& separation = adapted.value().separation;
  ASSERT_EQ(separation.size(), options.projection.latent_dim);
  EXPECT_DOUBLE_EQ(separation.NormInf(), 1.0);
  for (std::size_t c = 0; c < separation.size(); ++c) {
    EXPECT_GE(separation[c], 0.0);
  }
}

TEST_F(EmbeddingPipelineTest, AdapterOrientsPositiveInstancesHigher) {
  Rng rng(21);
  auto adapted = AdaptDomains(generated_->networks, target_graph_, tensors_,
                              DomainAdapterOptions{}, rng);
  ASSERT_TRUE(adapted.ok());
  // Oriented latent slices, mapped through the anchors, must score
  // existing target links above absent pairs on average.
  double link_sum = 0.0;
  double non_sum = 0.0;
  std::size_t links = 0;
  std::size_t nons = 0;
  const Matrix sum = adapted.value().slice_sums[0].ToDense();
  for (std::size_t u = 0; u < target_graph_.num_users(); ++u) {
    for (std::size_t v = u + 1; v < target_graph_.num_users(); ++v) {
      if (target_graph_.HasEdge(u, v)) {
        link_sum += sum(u, v);
        ++links;
      } else {
        non_sum += sum(u, v);
        ++nons;
      }
    }
  }
  ASSERT_GT(links, 0u);
  ASSERT_GT(nons, 0u);
  EXPECT_GT(link_sum / links, non_sum / nons);
}

TEST_F(EmbeddingPipelineTest, PassthroughReturnsOneRawTensorPerSource) {
  auto pass = PassthroughAdapt(generated_->networks, tensors_);
  ASSERT_TRUE(pass.ok());
  ASSERT_EQ(pass.value().slice_sums.size(),
            generated_->networks.num_sources());
  // The source's raw slices, re-indexed into target coordinates and
  // summed; nothing is learned.
  const std::size_t n = generated_->networks.target().NumUsers();
  EXPECT_EQ(pass.value().slice_sums[0].rows(), n);
  EXPECT_EQ(pass.value().slice_sums[0].cols(), n);
  EXPECT_TRUE(pass.value().projections.empty());
}

TEST_F(EmbeddingPipelineTest, ReindexImputesUncoveredPairsAtCoveredMean) {
  // With a tiny anchor set, uncovered pairs get the covered-mean value
  // rather than zero (no systematic penalty for unanchored users).
  Rng rng(23);
  AlignedNetworks bundle(generated_->networks.target());
  AnchorLinks small(generated_->networks.target().NumUsers(),
                    generated_->networks.source(0).NumUsers());
  int added = 0;
  for (const auto& [l, r] : generated_->networks.anchors(0).pairs()) {
    if (added >= 5) break;
    ASSERT_TRUE(small.Add(l, r).ok());
    ++added;
  }
  bundle.AddSource(generated_->networks.source(0), std::move(small));
  auto pass = PassthroughAdapt(bundle, tensors_);
  ASSERT_TRUE(pass.ok());
  const CsrMatrix& sum = pass.value().slice_sums[0];
  // Pick pairs of certainly-unanchored users (beyond the 5 anchored
  // lefts): each must hold the sum of the per-slice covered means,
  // which is constant across uncovered pairs.
  std::vector<std::size_t> unanchored;
  for (std::size_t u = 0; u < bundle.target().NumUsers(); ++u) {
    if (!bundle.anchors(0).RightOf(u).has_value()) unanchored.push_back(u);
  }
  ASSERT_GE(unanchored.size(), 3u);
  const double a = sum.At(unanchored[0], unanchored[1]);
  EXPECT_GT(a, 0.0) << "uncovered pairs are imputed, not left at zero";
  EXPECT_EQ(a, sum.At(unanchored[1], unanchored[2]))
      << "uncovered pairs share the imputed mean";
}

TEST_F(EmbeddingPipelineTest, NoAnchorsMeansZeroTransfer) {
  AlignedNetworks bundle(generated_->networks.target());
  AnchorLinks empty(generated_->networks.target().NumUsers(),
                    generated_->networks.source(0).NumUsers());
  bundle.AddSource(generated_->networks.source(0), std::move(empty));
  auto pass = PassthroughAdapt(bundle, tensors_);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass.value().slice_sums[0].nnz(), 0u);
}

// A 4-user target over a 3-user source, target users 0-2 anchored to
// source users 0-2 and user 3 unanchored. Two raw source slices:
//   slice 0: (0,1) = 1, (1,2) = 0.5        (both symmetric)
//   slice 1: (1,2) = 0.75, diagonal (1,1) = 8
// The six covered pairs sum to 3 in slice 0 and 1.5 in slice 1, so the
// per-slice means are 0.5 and 0.25, and every uncovered pair gets 0.75.
TEST(PassthroughAdaptTest, HandBuiltFourUserSum) {
  HeterogeneousNetwork target("target");
  target.AddNodes(NodeType::kUser, 4);
  HeterogeneousNetwork source("source");
  source.AddNodes(NodeType::kUser, 3);
  SparseTensor3 raw_source(2, 3, 3);
  raw_source.SetSlice(0, CsrMatrix::FromTriplets(3, 3,
                                                 {{0, 1, 1.0},
                                                  {1, 0, 1.0},
                                                  {1, 2, 0.5},
                                                  {2, 1, 0.5}}));
  raw_source.SetSlice(1, CsrMatrix::FromTriplets(3, 3,
                                                 {{1, 1, 8.0},
                                                  {1, 2, 0.75},
                                                  {2, 1, 0.75}}));
  const std::vector<SparseTensor3> raw = {SparseTensor3(1, 4, 4),
                                          raw_source};

  AnchorLinks anchors(4, 3);
  for (std::size_t u = 0; u < 3; ++u) ASSERT_TRUE(anchors.Add(u, u).ok());
  AlignedNetworks anchored(target);
  anchored.AddSource(source, anchors);
  auto pass = PassthroughAdapt(anchored, raw);
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  const CsrMatrix& g = pass.value().slice_sums[0];
  ASSERT_EQ(g.rows(), 4u);
  ASSERT_EQ(g.cols(), 4u);
  // Covered pairs: their slice sums (a zero sum stays unstored).
  EXPECT_EQ(g.At(0, 1), 1.0);
  EXPECT_EQ(g.At(1, 0), 1.0);
  EXPECT_EQ(g.At(1, 2), 1.25);
  EXPECT_EQ(g.At(2, 1), 1.25);
  EXPECT_EQ(g.At(0, 2), 0.0);
  // Uncovered pairs: Σ_c of the covered means.
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(g.At(u, 3), 0.75) << u;
    EXPECT_EQ(g.At(3, u), 0.75) << u;
  }
  // The diagonal is empty: 12 off-diagonal pairs less the zero pair.
  for (std::size_t u = 0; u < 4; ++u) EXPECT_EQ(g.At(u, u), 0.0) << u;
  EXPECT_EQ(g.nnz(), 10u);

  AlignedNetworks unaligned(target);
  unaligned.AddSource(source, AnchorLinks(4, 3));
  auto none = PassthroughAdapt(unaligned, raw);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().slice_sums[0].rows(), 4u);
  EXPECT_EQ(none.value().slice_sums[0].nnz(), 0u);
}

// --- Theorem-1 projection against the dense oracle -------------------
//
// AdaptDomains streams the source projection: one pass finds each
// latent slice's range, and the re-index projects the anchored block
// only. The oracle below is the dense path it replaced: every fibre
// projected into a c x n_s x n_s Tensor3, Tensor3::NormalizeSlicesMinMax,
// then a dense re-index through the anchors with the covered-mean fill.

// The adapter's scaler: per-feature mean and 1/std over the network's
// sampled instances (0 for a constant feature).
void OracleScaler(const InstanceSample& sample, std::size_t network,
                  Vector* mean, Vector* inv_std) {
  const std::size_t begin = sample.network_offsets[network];
  const std::size_t end = sample.network_offsets[network + 1];
  const std::size_t d = sample.feature_dims[network];
  *mean = Vector(d);
  *inv_std = Vector(d);
  const double count = std::max<double>(1.0, static_cast<double>(end - begin));
  for (std::size_t i = begin; i < end; ++i) {
    *mean += sample.instances[i].features;
  }
  *mean /= count;
  Vector var(d);
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = sample.instances[i].features[k] - (*mean)[k];
      var[k] += diff * diff;
    }
  }
  for (std::size_t k = 0; k < d; ++k) {
    const double std = std::sqrt(var[k] / count);
    (*inv_std)[k] = std > 1e-12 ? 1.0 / std : 0.0;
  }
}

// Every fibre of `raw` standardised and projected through fᵀ.
Tensor3 OracleProjectTensor(const SparseTensor3& raw, const Vector& mean,
                            const Vector& inv_std, const Matrix& f) {
  const Tensor3 dense = raw.ToDense();
  const std::size_t n = raw.dim1();
  Tensor3 out(f.cols(), n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t c = 0; c < f.cols(); ++c) {
        double sum = 0.0;
        for (std::size_t d = 0; d < raw.dim0(); ++d) {
          const double z = (dense(d, i, j) - mean[d]) * inv_std[d];
          sum += f(d, c) * z;
        }
        out(c, i, j) = sum;
      }
    }
  }
  return out;
}

// The n_t x n_t slice sum of the normalised projection: covered pairs
// sum their separation-weighted slices, uncovered pairs take Σ_c of the
// covered means, the diagonal stays 0.
Matrix OracleSliceSum(const Tensor3& projected, const Vector& separation,
                      const AnchorLinks& anchors, std::size_t n_target) {
  const std::size_t slices = projected.dim0();
  std::vector<double> slice_sum(slices, 0.0);
  std::size_t covered = 0;
  Matrix out(n_target, n_target);
  for (std::size_t ti = 0; ti < n_target; ++ti) {
    for (std::size_t tj = 0; tj < n_target; ++tj) {
      const auto si = anchors.RightOf(ti);
      const auto sj = anchors.RightOf(tj);
      if (ti == tj || !si.has_value() || !sj.has_value()) continue;
      ++covered;
      double value = 0.0;
      for (std::size_t c = 0; c < slices; ++c) {
        const double v = projected(c, *si, *sj) * separation[c];
        slice_sum[c] += v;
        value += v;
      }
      out(ti, tj) = value;
    }
  }
  if (covered == 0) return Matrix(n_target, n_target);
  double fill = 0.0;
  for (std::size_t c = 0; c < slices; ++c) {
    fill += slice_sum[c] / static_cast<double>(covered);
  }
  for (std::size_t ti = 0; ti < n_target; ++ti) {
    for (std::size_t tj = 0; tj < n_target; ++tj) {
      if (ti != tj && !(anchors.RightOf(ti).has_value() &&
                        anchors.RightOf(tj).has_value())) {
        out(ti, tj) = fill;
      }
    }
  }
  return out;
}

// Runs AdaptDomains on (networks, structure) and checks its one source's
// slice sum against the oracle, entry for entry.
void ExpectAdaptMatchesDenseOracle(const AlignedNetworks& networks,
                                   const SocialGraph& structure) {
  ASSERT_EQ(networks.num_sources(), 1u);
  std::vector<SparseTensor3> raw;
  raw.push_back(BuildSparseFeatureTensor(networks.target(), structure));
  raw.push_back(BuildSparseFeatureTensor(
      networks.source(0),
      SocialGraph::FromHeterogeneousNetwork(networks.source(0))));
  ASSERT_TRUE(raw[1].IsDegreeSlice(4)) << "PA slice kept as its degrees";

  const DomainAdapterOptions options;
  Rng rng(99);
  auto adapted = AdaptDomains(networks, structure, raw, options, rng);
  ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();

  // The same sample the adapter drew, hence the same scaler.
  Rng replay(99);
  auto sample = SampleLinkInstances(networks, structure, raw,
                                    options.sampling, replay);
  ASSERT_TRUE(sample.ok());
  Vector mean;
  Vector inv_std;
  OracleScaler(sample.value(), 1, &mean, &inv_std);
  Tensor3 projected = OracleProjectTensor(
      raw[1], mean, inv_std, adapted.value().projections[1]);
  projected.NormalizeSlicesMinMax();
  const Matrix expected =
      OracleSliceSum(projected, adapted.value().separation,
                     networks.anchors(0), networks.target().NumUsers());
  const Matrix actual = adapted.value().slice_sums[0].ToDense();
  ASSERT_EQ(expected.rows(), actual.rows());
  ASSERT_EQ(expected.cols(), actual.cols());
  for (std::size_t i = 0; i < expected.data().size(); ++i) {
    ASSERT_EQ(expected.data()[i], actual.data()[i]) << "flat index " << i;
  }
}

TEST(AdaptDomainsOracleTest, SeedFortyTwoBundleMatchesDenseProjection) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  ExpectAdaptMatchesDenseOracle(
      networks, SocialGraph::FromHeterogeneousNetwork(networks.target()));
}

TEST(AdaptDomainsOracleTest, ClusterBundleWithUnanchoredSourceUsers) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(networks.target());
  std::vector<std::size_t> members;
  for (std::size_t u = 0; u < 150; ++u) members.push_back(u);
  auto cluster = ExtractClusterBundle(networks, structure, members);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const AlignedNetworks& sub = cluster.value().networks;
  // The sub-source holds the anchored partners plus their friends, so
  // some source users have no anchor into the cluster.
  ASSERT_GT(sub.source(0).NumUsers(), sub.anchors(0).size());
  ExpectAdaptMatchesDenseOracle(sub, cluster.value().structure);
}

}  // namespace
}  // namespace slampred
