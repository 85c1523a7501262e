// Tests for structural and attribute feature extraction and the feature
// tensor builder.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "features/attribute_features.h"
#include "features/feature_tensor.h"
#include "features/structural_features.h"
#include "graph/social_graph.h"
#include "linalg/sparse_tensor3.h"
#include "linalg/tensor3.h"
#include "util/binary_io.h"

namespace slampred {
namespace {

// Small fixture graph:
//   0 - 1, 0 - 2, 1 - 2, 1 - 3, 2 - 3  (triangle 0-1-2 plus tail via 3).
SocialGraph FixtureGraph() {
  SocialGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  return g;
}

TEST(StructuralFeaturesTest, CommonNeighborsHandChecked) {
  const Matrix cn = CommonNeighborsMap(FixtureGraph());
  EXPECT_DOUBLE_EQ(cn(0, 3), 2.0);  // Via 1 and 2.
  EXPECT_DOUBLE_EQ(cn(0, 1), 1.0);  // Via 2.
  EXPECT_DOUBLE_EQ(cn(0, 4), 0.0);
  EXPECT_TRUE(cn.IsSymmetric());
}

TEST(StructuralFeaturesTest, JaccardHandChecked) {
  const SocialGraph g = FixtureGraph();
  const Matrix jc = JaccardMap(g);
  // Γ(0) = {1,2}, Γ(3) = {1,2} → J = 2/2 = 1.
  EXPECT_DOUBLE_EQ(jc(0, 3), 1.0);
  // Γ(0) = {1,2}, Γ(1) = {0,2,3} → inter {2}, union {0,1,2,3} → 1/4.
  EXPECT_DOUBLE_EQ(jc(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(jc(0, 4), 0.0);
}

TEST(StructuralFeaturesTest, AdamicAdarHandChecked) {
  const Matrix aa = AdamicAdarMap(FixtureGraph());
  // Common neighbors of (0,3): nodes 1 and 2, both degree 3.
  const double expected = 2.0 / std::log(3.0);
  EXPECT_NEAR(aa(0, 3), expected, 1e-12);
}

TEST(StructuralFeaturesTest, ResourceAllocationHandChecked) {
  const Matrix ra = ResourceAllocationMap(FixtureGraph());
  EXPECT_NEAR(ra(0, 3), 2.0 / 3.0, 1e-12);  // 1/deg(1) + 1/deg(2).
}

TEST(StructuralFeaturesTest, PreferentialAttachmentHandChecked) {
  const Matrix pa = PreferentialAttachmentMap(FixtureGraph());
  EXPECT_DOUBLE_EQ(pa(0, 1), 6.0);  // deg(0)=2, deg(1)=3.
  EXPECT_DOUBLE_EQ(pa(4, 1), 0.0);  // Isolated node 4.
  EXPECT_DOUBLE_EQ(pa(0, 0), 0.0);  // Diagonal untouched (zero).
}

TEST(StructuralFeaturesTest, KatzCountsShortPaths) {
  const Matrix katz = TruncatedKatzMap(FixtureGraph(), 0.1);
  // A²(0,3) = 2 paths; A³(0,3): enumerate length-3 paths 0→*→*→3 = 2
  // (0-1-2-3, 0-2-1-3). Score = 0.1·2 + 0.01·2 = 0.22.
  EXPECT_NEAR(katz(0, 3), 0.22, 1e-12);
  EXPECT_DOUBLE_EQ(katz(0, 0), 0.0);  // Diagonal zeroed.
  EXPECT_TRUE(katz.IsSymmetric());
}

TEST(StructuralFeaturesTest, AdamicAdarDegreeOneFloor) {
  SocialGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const Matrix aa = AdamicAdarMap(g);
  // Common neighbor of (0,2) is node 1 with degree 2 → 1/log 2, finite.
  EXPECT_TRUE(std::isfinite(aa(0, 2)));
  EXPECT_NEAR(aa(0, 2), 1.0 / std::log(2.0), 1e-12);
}

HeterogeneousNetwork AttributeFixture() {
  HeterogeneousNetwork net("n");
  net.AddNodes(NodeType::kUser, 3);
  net.AddNodes(NodeType::kPost, 3);
  net.AddNodes(NodeType::kWord, 4);
  net.AddNodes(NodeType::kLocation, 2);
  net.AddNodes(NodeType::kTimestamp, 2);
  // User 0 writes post 0 with words {0, 1}; user 1 writes post 1 with
  // words {0, 1}; user 2 writes post 2 with words {2, 3}.
  net.AddEdge(EdgeType::kWrite, 0, 0);
  net.AddEdge(EdgeType::kWrite, 1, 1);
  net.AddEdge(EdgeType::kWrite, 2, 2);
  net.AddEdge(EdgeType::kHasWord, 0, 0);
  net.AddEdge(EdgeType::kHasWord, 0, 1);
  net.AddEdge(EdgeType::kHasWord, 1, 0);
  net.AddEdge(EdgeType::kHasWord, 1, 1);
  net.AddEdge(EdgeType::kHasWord, 2, 2);
  net.AddEdge(EdgeType::kHasWord, 2, 3);
  return net;
}

TEST(AttributeFeaturesTest, ProfileCountsAttachments) {
  const Matrix profile =
      UserAttributeProfile(AttributeFixture(), AttributeKind::kWord);
  EXPECT_EQ(profile.rows(), 3u);
  EXPECT_EQ(profile.cols(), 4u);
  EXPECT_DOUBLE_EQ(profile(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(profile(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(profile(2, 3), 1.0);
}

TEST(AttributeFeaturesTest, CosineSimilarityMatchesOverlap) {
  const Matrix sim =
      AttributeSimilarityMap(AttributeFixture(), AttributeKind::kWord);
  EXPECT_NEAR(sim(0, 1), 1.0, 1e-12);  // Identical word usage.
  EXPECT_DOUBLE_EQ(sim(0, 2), 0.0);    // Disjoint word usage.
  EXPECT_DOUBLE_EQ(sim(0, 0), 0.0);    // Diagonal zero.
  EXPECT_TRUE(sim.IsSymmetric());
}

TEST(AttributeFeaturesTest, ZeroProfileGivesZeroSimilarity) {
  HeterogeneousNetwork net("n");
  net.AddNodes(NodeType::kUser, 2);
  net.AddNodes(NodeType::kWord, 2);
  const Matrix sim = AttributeSimilarityMap(net, AttributeKind::kWord);
  EXPECT_DOUBLE_EQ(sim.MaxAbs(), 0.0);
}

TEST(FeatureTensorTest, NamesMatchEnabledSlices) {
  FeatureTensorOptions options;
  EXPECT_EQ(NumFeatures(options), 9u);
  options.jaccard = false;
  options.time_similarity = false;
  const auto names = FeatureNames(options);
  EXPECT_EQ(names.size(), 7u);
  EXPECT_EQ(NumFeatures(options), 7u);
  for (const auto& name : names) {
    EXPECT_NE(name, "jaccard");
    EXPECT_NE(name, "time_similarity");
  }
}

TEST(FeatureTensorTest, SlicesNormalisedAndDiagonalZero) {
  HeterogeneousNetwork net = AttributeFixture();
  net.AddEdge(EdgeType::kFriend, 0, 1);
  net.AddEdge(EdgeType::kFriend, 1, 2);
  const SocialGraph structure = SocialGraph::FromHeterogeneousNetwork(net);
  const Tensor3 tensor = BuildFeatureTensor(net, structure);
  EXPECT_EQ(tensor.dim0(), 9u);
  EXPECT_EQ(tensor.dim1(), 3u);
  for (std::size_t k = 0; k < tensor.dim0(); ++k) {
    const Matrix slice = tensor.Slice(k);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(slice(i, i), 0.0);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_GE(slice(i, j), 0.0);
        EXPECT_LE(slice(i, j), 1.0);
      }
    }
  }
}

TEST(FeatureTensorTest, StructureOnlyVariant) {
  FeatureTensorOptions options;
  options.word_similarity = false;
  options.location_similarity = false;
  options.time_similarity = false;
  HeterogeneousNetwork net = AttributeFixture();
  net.AddEdge(EdgeType::kFriend, 0, 1);
  const SocialGraph structure = SocialGraph::FromHeterogeneousNetwork(net);
  const Tensor3 tensor = BuildFeatureTensor(net, structure, options);
  EXPECT_EQ(tensor.dim0(), 6u);
}

TEST(FeatureTensorTest, SqrtTransformIsMonotone) {
  HeterogeneousNetwork net = AttributeFixture();
  net.AddEdge(EdgeType::kFriend, 0, 1);
  net.AddEdge(EdgeType::kFriend, 0, 2);
  const SocialGraph structure = SocialGraph::FromHeterogeneousNetwork(net);
  FeatureTensorOptions with;
  FeatureTensorOptions without;
  without.sqrt_transform = false;
  const Tensor3 a = BuildFeatureTensor(net, structure, with);
  const Tensor3 b = BuildFeatureTensor(net, structure, without);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_NEAR(a.data()[i], std::sqrt(b.data()[i]), 1e-12);
  }
}

TEST(FeatureTensorTest, TrainingGraphControlsStructuralFeatures) {
  // Hiding an edge must change structural slices but not attribute ones.
  HeterogeneousNetwork net = AttributeFixture();
  net.AddEdge(EdgeType::kFriend, 0, 1);
  net.AddEdge(EdgeType::kFriend, 1, 2);
  net.AddEdge(EdgeType::kFriend, 0, 2);
  const SocialGraph full = SocialGraph::FromHeterogeneousNetwork(net);
  const SocialGraph train = full.WithEdgesRemoved({{0, 2}});
  FeatureTensorOptions options;
  options.sqrt_transform = false;
  const Tensor3 on_full = BuildFeatureTensor(net, full, options);
  const Tensor3 on_train = BuildFeatureTensor(net, train, options);
  // Word-similarity slice (index 6) identical; CN slice (index 0) not.
  EXPECT_EQ(on_full.Slice(6), on_train.Slice(6));
  EXPECT_FALSE(on_full.Slice(0) == on_train.Slice(0));
}

// --- The preferential-attachment degree slice -------------------------
//
// The sparse feature build keeps PA as its degree vector. Its oracle is
// the dense path: PreferentialAttachmentMap, Tensor3 min-max, then √.

std::vector<double> Degrees(const SocialGraph& g) {
  std::vector<double> x(g.num_users());
  for (std::size_t u = 0; u < x.size(); ++u) {
    x[u] = static_cast<double>(g.Degree(u));
  }
  return x;
}

// Normalises and square-roots both forms, then requires At, Fiber, the
// row visitor, Slice, ToDense and MaxAbs to read the oracle bit for bit.
void ExpectDegreeSliceMatchesOracle(const SocialGraph& g) {
  const std::size_t n = g.num_users();
  Tensor3 oracle(1, n, n);
  oracle.SetSlice(0, PreferentialAttachmentMap(g));
  oracle.NormalizeSlicesMinMax();
  for (double& v : oracle.data()) v = std::sqrt(v);

  SparseTensor3 tensor(1, n, n);
  tensor.SetDegreeSlice(0, Degrees(g));
  tensor.NormalizeSlicesMinMax();
  tensor.ApplySqrt();

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(n, 0.0);
    std::size_t last = 0;
    bool first = true;
    tensor.ForEachInRow(0, i, [&](std::size_t j, double v) {
      EXPECT_TRUE(first || j > last) << "row " << i << " not ascending";
      EXPECT_NE(v, 0.0) << "visited a zero at (" << i << ", " << j << ")";
      first = false;
      last = j;
      row[j] = v;
    });
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(oracle(0, i, j), tensor.At(0, i, j)) << i << "," << j;
      ASSERT_EQ(oracle(0, i, j), tensor.Fiber(i, j)[0]) << i << "," << j;
      ASSERT_EQ(oracle(0, i, j), row[j]) << i << "," << j;
    }
  }
  const Tensor3 dense = tensor.ToDense();
  for (std::size_t f = 0; f < dense.data().size(); ++f) {
    ASSERT_EQ(oracle.data()[f], dense.data()[f]) << "flat index " << f;
  }
  EXPECT_EQ(tensor.Slice(0), oracle.Slice(0));
  EXPECT_EQ(tensor.MaxAbs(), oracle.MaxAbs());
  EXPECT_EQ(tensor.TotalNnz(), 0u) << "a degree slice stores no entries";
}

TEST(DegreeSliceTest, MatchesDenseMapWithIsolatedUsers) {
  SocialGraph g = FixtureGraph();  // User 4 is isolated.
  SparseTensor3 tensor(1, 5, 5);
  tensor.SetDegreeSlice(0, Degrees(g));
  EXPECT_TRUE(tensor.IsDegreeSlice(0));
  EXPECT_EQ(tensor.EstimatedBytes(), 5 * sizeof(double));
  tensor.NormalizeSlicesMinMax();
  EXPECT_TRUE(tensor.IsDegreeSlice(0)) << "normalising keeps the form";
  ExpectDegreeSliceMatchesOracle(g);
}

TEST(DegreeSliceTest, TiedTopDegrees) {
  // Users 1 and 2 share the top degree 3; the top product is 3·3.
  ExpectDegreeSliceMatchesOracle(FixtureGraph());
  SocialGraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(4, 1);
  g.AddEdge(4, 2);
  g.AddEdge(4, 3);
  ExpectDegreeSliceMatchesOracle(g);  // 0 and 4 tie at degree 3.
}

TEST(DegreeSliceTest, FewerThanTwoActiveUsersIsAnEmptySlice) {
  ExpectDegreeSliceMatchesOracle(SocialGraph(4));  // No edges at all.
  // One nonzero x: no off-diagonal product is nonzero either.
  SparseTensor3 tensor(1, 3, 3);
  tensor.SetDegreeSlice(0, {0.0, 5.0, 0.0});
  EXPECT_EQ(tensor.MaxAbs(), 0.0);
  tensor.NormalizeSlicesMinMax();
  EXPECT_FALSE(tensor.IsDegreeSlice(0)) << "a constant slice empties";
  EXPECT_EQ(tensor.Slice(0), Matrix(3, 3));
}

TEST(DegreeSliceTest, FeatureTensorKeepsPreferentialAttachmentAsDegrees) {
  const SocialGraph g = FixtureGraph();
  HeterogeneousNetwork net("fixture");
  net.AddNodes(NodeType::kUser, g.num_users());
  FeatureTensorOptions options;
  options.word_similarity = false;
  options.location_similarity = false;
  options.time_similarity = false;
  const SparseTensor3 sparse = BuildSparseFeatureTensor(net, g, options);
  const Tensor3 dense = BuildFeatureTensor(net, g, options);
  ASSERT_EQ(FeatureNames(options)[4], "preferential_attachment");
  EXPECT_TRUE(sparse.IsDegreeSlice(4));
  const Tensor3 round_trip = sparse.ToDense();
  for (std::size_t f = 0; f < dense.data().size(); ++f) {
    ASSERT_EQ(dense.data()[f], round_trip.data()[f]) << "flat index " << f;
  }
}

TEST(DegreeSliceTest, SerializeWritesTheEntriesAsCsr) {
  const SocialGraph g = FixtureGraph();
  SparseTensor3 tensor(2, 5, 5);
  tensor.SetSlice(0, CommonNeighborsCsr(g));
  tensor.SetDegreeSlice(1, Degrees(g));
  tensor.NormalizeSlicesMinMax();
  tensor.ApplySqrt();
  BinaryWriter writer;
  tensor.Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = SparseTensor3::Deserialize(reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The codec knows one slice form: the degree slice reads back as the
  // CSR of its entries, stored and counted as such.
  EXPECT_FALSE(back.value().IsDegreeSlice(1));
  EXPECT_EQ(back.value().TotalNnz(), tensor.TotalNnz() + 4 * 3);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(back.value().Slice(k), tensor.Slice(k)) << "slice " << k;
  }
}

}  // namespace
}  // namespace slampred
