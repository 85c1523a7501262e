// Tests for the domain-adaptation pipeline: instance sampling, indicator
// matrices, Laplacians, the Theorem-1 solver and the adapter.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
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
#include "linalg/generalized_eigen.h"
#include "linalg/tensor3.h"

namespace slampred {
namespace {

// --- Theorem-1 oracles: the stored-indicator path -------------------
//
// SolveProjections reads W_S and W_D from the existence labels and each
// instance's features from its own block of Z. The oracles below are
// the path it replaced: the dense block-diagonal Z, the label
// indicators stored as CSR with ~|L|² entries, and the sandwich that
// walks their stored entries down Z's columns.

// Z (total feature dims x instances): column i holds instance i's
// features in its own network's rows, exact zeros elsewhere.
Matrix OracleBlockDiagonalZ(const InstanceSample& sample) {
  std::size_t total_dims = 0;
  for (std::size_t dk : sample.feature_dims) total_dims += dk;
  Matrix z(total_dims, sample.total());
  std::size_t row_offset = 0;
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    for (std::size_t i = sample.network_offsets[k];
         i < sample.network_offsets[k + 1]; ++i) {
      const Vector& f = sample.instances[i].features;
      for (std::size_t r = 0; r < f.size(); ++r) {
        z(row_offset + r, i) = f[r];
      }
    }
    row_offset += sample.feature_dims[k];
  }
  return z;
}

// W_S (same_label) or W_D as a stored CSR: entry (i, j) = 1 for every
// i ≠ j whose labels agree (W_S) or differ (W_D).
CsrMatrix OracleLabelIndicator(const InstanceSample& sample,
                               bool same_label) {
  const std::size_t total = sample.total();
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t j = i + 1; j < total; ++j) {
      const bool same =
          sample.instances[i].exists == sample.instances[j].exists;
      if (same == same_label) {
        trips.push_back({i, j, 1.0});
        trips.push_back({j, i, 1.0});
      }
    }
  }
  return CsrMatrix::FromTriplets(total, total, std::move(trips));
}

CsrMatrix OracleSimilarIndicator(const InstanceSample& sample) {
  return OracleLabelIndicator(sample, /*same_label=*/true);
}

CsrMatrix OracleDissimilarIndicator(const InstanceSample& sample) {
  return OracleLabelIndicator(sample, /*same_label=*/false);
}

// Dense Laplacian D − W.
Matrix OracleDenseLaplacian(const CsrMatrix& w) {
  Matrix l = w.ToDense() * -1.0;
  const Vector degrees = w.RowSums();
  for (std::size_t i = 0; i < w.rows(); ++i) l(i, i) += degrees[i];
  return l;
}

// Z L Zᵀ over W's stored entries, reading z(·, i) down Z's columns: the
// degree terms for ascending i, then the −w_ij terms for ascending
// (i, j), each skipped when z(a, i)·w is zero.
Matrix OracleSandwich(const Matrix& z, const CsrMatrix& w) {
  const std::size_t d = z.rows();
  Matrix out(d, d);
  const Vector degrees = w.RowSums();
  for (std::size_t i = 0; i < z.cols(); ++i) {
    const double deg = degrees[i];
    if (deg == 0.0) continue;
    for (std::size_t a = 0; a < d; ++a) {
      const double za = z(a, i) * deg;
      if (za == 0.0) continue;
      for (std::size_t b = 0; b < d; ++b) out(a, b) += za * z(b, i);
    }
  }
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t p = w.row_ptr()[i]; p < w.row_ptr()[i + 1]; ++p) {
      const std::size_t j = w.col_idx()[p];
      const double wij = w.values()[p];
      if (wij == 0.0) continue;
      for (std::size_t a = 0; a < d; ++a) {
        const double za = z(a, i) * wij;
        if (za == 0.0) continue;
        for (std::size_t b = 0; b < d; ++b) out(a, b) -= za * z(b, j);
      }
    }
  }
  return out;
}

// Theorem 1 over the stored indicators.
Result<ProjectionResult> OracleSolveProjections(
    const InstanceSample& sample, const CsrMatrix& w_aligned,
    const CsrMatrix& w_similar, const CsrMatrix& w_dissimilar,
    const ProjectionOptions& options) {
  const Matrix z = OracleBlockDiagonalZ(sample);
  const Matrix a = OracleSandwich(z, w_aligned) * options.mu +
                   OracleSandwich(z, w_similar);
  const Matrix b = OracleSandwich(z, w_dissimilar);
  auto gen = ComputeGeneralizedEigen(a.Symmetrized(), b.Symmetrized());
  if (!gen.ok()) return gen.status();
  const Vector& lambda = gen.value().eigenvalues;
  const std::vector<std::size_t> chosen =
      SmallestNonZeroIndices(lambda, options.latent_dim);
  Matrix f(z.rows(), options.latent_dim);
  ProjectionResult result;
  result.eigenvalues = Vector(options.latent_dim);
  for (std::size_t c = 0; c < chosen.size(); ++c) {
    f.SetCol(c, gen.value().eigenvectors.Col(chosen[c]));
    result.eigenvalues[c] = lambda[chosen[c]];
  }
  std::size_t row_offset = 0;
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    result.projections.push_back(
        f.Block(row_offset, 0, sample.feature_dims[k], options.latent_dim));
    row_offset += sample.feature_dims[k];
  }
  return result;
}

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
  const CsrMatrix w_s = OracleSimilarIndicator(s);
  const CsrMatrix w_d = OracleDissimilarIndicator(s);
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
  const Matrix l = OracleDenseLaplacian(w);
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += l(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(l(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(l(0, 1), -1.0);
}

// A one-network sample whose instance i has features z(:, i) and label
// labels[i].
InstanceSample OneNetworkSample(const Matrix& z,
                                const std::vector<bool>& labels) {
  InstanceSample sample;
  sample.feature_dims = {z.rows()};
  sample.network_offsets = {0, z.cols()};
  for (std::size_t i = 0; i < z.cols(); ++i) {
    sample.instances.push_back({0, i, i + 1, labels[i], z.Col(i)});
  }
  return sample;
}

TEST(LaplacianTest, SandwichMatchesDenseComputation) {
  Rng rng(11);
  const Matrix z = Matrix::RandomGaussian(4, 6, rng);
  const InstanceSample sample =
      OneNetworkSample(z, {true, false, false, true, true, false});
  const CsrMatrix w = CsrMatrix::FromTriplets(
      6, 6,
      {{0, 1, 1.0}, {1, 0, 1.0}, {2, 3, 0.5}, {3, 2, 0.5}, {4, 5, 2.0},
       {5, 4, 2.0}});
  const Matrix direct = z * OracleDenseLaplacian(w) * z.Transposed();
  EXPECT_LT((direct - SandwichLaplacian(sample, w)).MaxAbs(), 1e-10);
  // The label sandwiches against the dense Laplacians of the stored
  // label indicators.
  const Matrix similar =
      z * OracleDenseLaplacian(OracleSimilarIndicator(sample)) *
      z.Transposed();
  const Matrix dissimilar =
      z * OracleDenseLaplacian(OracleDissimilarIndicator(sample)) *
      z.Transposed();
  EXPECT_LT((similar - SandwichLaplacian(sample, LabelIndicator::kSimilar))
                .MaxAbs(),
            1e-10);
  EXPECT_LT(
      (dissimilar - SandwichLaplacian(sample, LabelIndicator::kDissimilar))
          .MaxAbs(),
      1e-10);
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
  const Matrix z = OracleBlockDiagonalZ(s);
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
  ProjectionOptions options;
  options.latent_dim = 4;
  auto proj = SolveProjections(sample.value(), w_a, options);
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
  const CsrMatrix w_a = BuildAlignedIndicator(
      sample.value(), {&generated_->networks.anchors(0)});
  ProjectionOptions options;
  options.latent_dim = 10000;
  EXPECT_FALSE(SolveProjections(sample.value(), w_a, options).ok());
  options.latent_dim = 0;
  EXPECT_FALSE(SolveProjections(sample.value(), w_a, options).ok());
  // W_A must be square over the sample.
  options.latent_dim = 4;
  EXPECT_FALSE(SolveProjections(sample.value(), CsrMatrix(), options).ok());
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

// --- Theorem 1 from the labels against the stored-indicator oracle ---

void ExpectSameBits(const std::vector<double>& expected,
                    const std::vector<double>& actual,
                    const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  if (expected.empty()) return;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size() * sizeof(double)),
            0)
      << what;
}

void ExpectSameBits(const Matrix& expected, const Matrix& actual,
                    const std::string& what) {
  ASSERT_EQ(expected.rows(), actual.rows()) << what;
  ASSERT_EQ(expected.cols(), actual.cols()) << what;
  ExpectSameBits(expected.data(), actual.data(), what);
}

// Theorem 1 on `sample` — the three sandwiches, A and B, and the
// solve's projections and eigenvalues — against the stored-indicator
// oracle, bit for bit.
void ExpectTheoremOneMatchesOracle(const InstanceSample& sample,
                                   const AlignedNetworks& networks,
                                   const ProjectionOptions& options) {
  std::vector<const AnchorLinks*> anchors;
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    anchors.push_back(&networks.anchors(k));
  }
  const CsrMatrix w_a = BuildAlignedIndicator(sample, anchors);
  const CsrMatrix w_s = OracleSimilarIndicator(sample);
  const CsrMatrix w_d = OracleDissimilarIndicator(sample);
  const Matrix z = OracleBlockDiagonalZ(sample);
  const Matrix aligned = SandwichLaplacian(sample, w_a);
  const Matrix similar = SandwichLaplacian(sample, LabelIndicator::kSimilar);
  ExpectSameBits(OracleSandwich(z, w_a), aligned, "Z L_A Z^T");
  ExpectSameBits(OracleSandwich(z, w_s), similar, "Z L_S Z^T");
  ExpectSameBits(
      OracleSandwich(z, w_a) * options.mu + OracleSandwich(z, w_s),
      aligned * options.mu + similar, "A");
  ExpectSameBits(OracleSandwich(z, w_d),
                 SandwichLaplacian(sample, LabelIndicator::kDissimilar), "B");

  auto expected = OracleSolveProjections(sample, w_a, w_s, w_d, options);
  auto actual = SolveProjections(sample, w_a, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(expected.value().projections.size(),
            actual.value().projections.size());
  for (std::size_t k = 0; k < expected.value().projections.size(); ++k) {
    ExpectSameBits(expected.value().projections[k],
                   actual.value().projections[k],
                   "projection " + std::to_string(k));
  }
  ExpectSameBits(expected.value().eigenvalues.data(),
                 actual.value().eigenvalues.data(), "eigenvalues");
}

// The sample AdaptDomains draws on `networks` (default sampling, the
// target on its full graph), with raw features.
void DrawSample(const AlignedNetworks& networks, InstanceSample* out) {
  const SocialGraph structure =
      SocialGraph::FromHeterogeneousNetwork(networks.target());
  std::vector<SparseTensor3> raw;
  raw.push_back(BuildSparseFeatureTensor(networks.target(), structure));
  for (std::size_t k = 0; k < networks.num_sources(); ++k) {
    raw.push_back(BuildSparseFeatureTensor(
        networks.source(k),
        SocialGraph::FromHeterogeneousNetwork(networks.source(k))));
  }
  Rng rng(42);
  auto sample = SampleLinkInstances(networks, structure, raw,
                                    InstanceSampleOptions{}, rng);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  *out = std::move(sample).value();
}

// Standardises every network's features in place with the adapter's
// scaler, as AdaptDomains does before the solve.
void Standardise(InstanceSample* sample) {
  for (std::size_t k = 0; k < sample->num_networks(); ++k) {
    Vector mean;
    Vector inv_std;
    OracleScaler(*sample, k, &mean, &inv_std);
    for (std::size_t i = sample->network_offsets[k];
         i < sample->network_offsets[k + 1]; ++i) {
      Vector& f = sample->instances[i].features;
      for (std::size_t d = 0; d < f.size(); ++d) {
        f[d] = (f[d] - mean[d]) * inv_std[d];
      }
    }
  }
}

// The instances of `sample` that `keep` accepts, network blocks intact.
template <typename Keep>
InstanceSample Subsample(const InstanceSample& sample, const Keep& keep) {
  InstanceSample out;
  out.feature_dims = sample.feature_dims;
  out.network_offsets.push_back(0);
  for (std::size_t k = 0; k < sample.num_networks(); ++k) {
    for (std::size_t i = sample.network_offsets[k];
         i < sample.network_offsets[k + 1]; ++i) {
      if (keep(i)) out.instances.push_back(sample.instances[i]);
    }
    out.network_offsets.push_back(out.instances.size());
  }
  return out;
}

TEST(TheoremOneOracleTest, SeedFortyTwoSampleMatchesStoredIndicators) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  InstanceSample sample;
  ASSERT_NO_FATAL_FAILURE(DrawSample(networks, &sample));
  Standardise(&sample);
  ASSERT_EQ(sample.num_networks(), 2u);
  ASSERT_GT(OracleSimilarIndicator(sample).nnz(), 0u);
  ASSERT_GT(OracleDissimilarIndicator(sample).nnz(), 0u);
  ExpectTheoremOneMatchesOracle(sample, networks, ProjectionOptions{});
}

TEST(TheoremOneOracleTest, TwoSourceBundleWithThreeBlocks) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(42);
  NetworkRealizationConfig extra = config.sources[0];
  extra.name = "second_source";
  extra.coverage = 0.7;
  config.sources.push_back(extra);
  auto gen = GenerateAligned(config);
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  InstanceSample sample;
  ASSERT_NO_FATAL_FAILURE(DrawSample(networks, &sample));
  Standardise(&sample);
  ASSERT_EQ(sample.num_networks(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_LT(sample.network_offsets[k], sample.network_offsets[k + 1]) << k;
  }
  ProjectionOptions options;
  options.latent_dim = 7;
  options.mu = 0.3;
  ExpectTheoremOneMatchesOracle(sample, networks, options);
}

TEST(TheoremOneOracleTest, OneClassSampleHasNoDissimilarPairs) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  InstanceSample drawn;
  ASSERT_NO_FATAL_FAILURE(DrawSample(networks, &drawn));
  InstanceSample sample = Subsample(
      drawn, [&](std::size_t i) { return drawn.instances[i].exists; });
  Standardise(&sample);
  ASSERT_GT(sample.total(), 1u);
  ASSERT_EQ(OracleDissimilarIndicator(sample).nnz(), 0u);
  ExpectTheoremOneMatchesOracle(sample, networks, ProjectionOptions{});
}

TEST(TheoremOneOracleTest, OneInstanceSample) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  InstanceSample drawn;
  ASSERT_NO_FATAL_FAILURE(DrawSample(networks, &drawn));
  InstanceSample sample =
      Subsample(drawn, [](std::size_t i) { return i == 0; });
  ASSERT_EQ(sample.total(), 1u);
  ExpectTheoremOneMatchesOracle(sample, networks, ProjectionOptions{});
}

TEST(TheoremOneOracleTest, ConstantFeatureStandardisesToSignedZeros) {
  auto gen = GenerateAligned(DefaultExperimentConfig(42));
  ASSERT_TRUE(gen.ok());
  const AlignedNetworks& networks = gen.value().networks;
  InstanceSample sample;
  ASSERT_NO_FATAL_FAILURE(DrawSample(networks, &sample));
  // A constant target feature: its mean rounds away from the value, so
  // its std is ~1e-17, its inv_std 0, and (x − mean)·0 is −0.0 on every
  // instance.
  for (std::size_t i = 0; i < sample.network_offsets[1]; ++i) {
    sample.instances[i].features[2] = 0.1;
  }
  Standardise(&sample);
  std::size_t negative_zeros = 0;
  for (const LinkInstance& inst : sample.instances) {
    for (std::size_t d = 0; d < inst.features.size(); ++d) {
      const double v = inst.features[d];
      if (v == 0.0 && std::signbit(v)) ++negative_zeros;
    }
  }
  ASSERT_GT(negative_zeros, 0u);
  ExpectTheoremOneMatchesOracle(sample, networks, ProjectionOptions{});
}

}  // namespace
}  // namespace slampred
