// Tests for the heterogeneous network, social graph, anchor links and
// aligned-network bundle.

#include <gtest/gtest.h>

#include "graph/aligned_networks.h"
#include "graph/anchor_links.h"
#include "graph/heterogeneous_network.h"
#include "graph/social_graph.h"
#include "util/random.h"

namespace slampred {
namespace {

TEST(NodeTypesTest, EdgeEndpointTypes) {
  EXPECT_EQ(EdgeSourceType(EdgeType::kFriend), NodeType::kUser);
  EXPECT_EQ(EdgeDestType(EdgeType::kFriend), NodeType::kUser);
  EXPECT_EQ(EdgeSourceType(EdgeType::kWrite), NodeType::kUser);
  EXPECT_EQ(EdgeDestType(EdgeType::kWrite), NodeType::kPost);
  EXPECT_EQ(EdgeSourceType(EdgeType::kHasWord), NodeType::kPost);
  EXPECT_EQ(EdgeDestType(EdgeType::kHasWord), NodeType::kWord);
  EXPECT_EQ(EdgeDestType(EdgeType::kPostedAt), NodeType::kTimestamp);
  EXPECT_EQ(EdgeDestType(EdgeType::kCheckin), NodeType::kLocation);
}

TEST(NodeTypesTest, Names) {
  EXPECT_STREQ(NodeTypeName(NodeType::kUser), "user");
  EXPECT_STREQ(EdgeTypeName(EdgeType::kCheckin), "checkin");
  EXPECT_EQ(NodeRefToString({NodeType::kPost, 17}), "post:17");
}

TEST(HeterogeneousNetworkTest, AddNodesReturnsFirstIndex) {
  HeterogeneousNetwork net("test");
  EXPECT_EQ(net.AddNodes(NodeType::kUser, 3), 0u);
  EXPECT_EQ(net.AddNodes(NodeType::kUser, 2), 3u);
  EXPECT_EQ(net.NumUsers(), 5u);
  EXPECT_EQ(net.NumNodes(NodeType::kPost), 0u);
}

TEST(HeterogeneousNetworkTest, FriendEdgesAreUndirected) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 3);
  ASSERT_TRUE(net.AddEdge(EdgeType::kFriend, 0, 1).ok());
  EXPECT_TRUE(net.HasEdge(EdgeType::kFriend, 0, 1));
  EXPECT_TRUE(net.HasEdge(EdgeType::kFriend, 1, 0));
  EXPECT_EQ(net.NumEdges(EdgeType::kFriend), 1u);
  // Duplicate is ignored.
  ASSERT_TRUE(net.AddEdge(EdgeType::kFriend, 1, 0).ok());
  EXPECT_EQ(net.NumEdges(EdgeType::kFriend), 1u);
}

TEST(HeterogeneousNetworkTest, SelfFriendLinkRejected) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 2);
  EXPECT_FALSE(net.AddEdge(EdgeType::kFriend, 1, 1).ok());
}

TEST(HeterogeneousNetworkTest, OutOfRangeEdgeRejected) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 2);
  EXPECT_FALSE(net.AddEdge(EdgeType::kFriend, 0, 5).ok());
  EXPECT_FALSE(net.AddEdge(EdgeType::kWrite, 0, 0).ok());  // No posts yet.
}

TEST(HeterogeneousNetworkTest, TypedEdgesAndNeighbors) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 2);
  net.AddNodes(NodeType::kPost, 2);
  net.AddNodes(NodeType::kWord, 3);
  ASSERT_TRUE(net.AddEdge(EdgeType::kWrite, 0, 0).ok());
  ASSERT_TRUE(net.AddEdge(EdgeType::kWrite, 0, 1).ok());
  ASSERT_TRUE(net.AddEdge(EdgeType::kHasWord, 0, 2).ok());
  EXPECT_EQ(net.Degree(EdgeType::kWrite, 0), 2u);
  EXPECT_EQ(net.Degree(EdgeType::kWrite, 1), 0u);
  EXPECT_EQ(net.Neighbors(EdgeType::kHasWord, 0),
            (std::vector<std::size_t>{2}));
}

TEST(HeterogeneousNetworkTest, ClearFriendEdgesKeepsOtherTypes) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 3);
  net.AddNodes(NodeType::kPost, 1);
  net.AddEdge(EdgeType::kFriend, 0, 1);
  net.AddEdge(EdgeType::kWrite, 2, 0);
  net.ClearFriendEdges();
  EXPECT_EQ(net.NumEdges(EdgeType::kFriend), 0u);
  EXPECT_FALSE(net.HasEdge(EdgeType::kFriend, 0, 1));
  EXPECT_EQ(net.NumEdges(EdgeType::kWrite), 1u);
}

TEST(HeterogeneousNetworkTest, SummaryMentionsCounts) {
  HeterogeneousNetwork net("n");
  net.AddNodes(NodeType::kUser, 4);
  const std::string summary = net.Summary();
  EXPECT_NE(summary.find("4 user"), std::string::npos);
}

TEST(SocialGraphTest, EdgeBasics) {
  SocialGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_FALSE(g.AddEdge(0, 0).ok());
  EXPECT_FALSE(g.AddEdge(0, 9).ok());
}

TEST(SocialGraphTest, DuplicateEdgeIgnored) {
  SocialGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SocialGraphTest, CommonNeighborsAndUnion) {
  SocialGraph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  const CsrMatrix a = g.AdjacencyCsr();
  EXPECT_EQ(a.RowIntersectionCount(0, 1), 2u);
  // |Γ(u) ∪ Γ(v)| = deg(u) + deg(v) − |Γ(u) ∩ Γ(v)|.
  EXPECT_EQ(g.Degree(0) + g.Degree(1) - a.RowIntersectionCount(0, 1), 3u);
  EXPECT_EQ(a.RowIntersectionCount(2, 4), 1u);  // Via user 1.
}

TEST(SocialGraphTest, AdjacencyMatrixSymmetricZeroDiagonal) {
  SocialGraph g(3);
  g.AddEdge(0, 1);
  const Matrix a = g.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 0.0);
  EXPECT_TRUE(a.IsSymmetric());
}

TEST(SocialGraphTest, EdgesListNormalised) {
  SocialGraph g(4);
  g.AddEdge(3, 1);
  g.AddEdge(0, 2);
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const UserPair& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(SocialGraphTest, WithEdgesRemoved) {
  SocialGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const SocialGraph pruned = g.WithEdgesRemoved({{2, 1}});  // Reversed order.
  EXPECT_EQ(pruned.num_edges(), 2u);
  EXPECT_FALSE(pruned.HasEdge(1, 2));
  EXPECT_TRUE(pruned.HasEdge(0, 1));
  // Original untouched.
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(SocialGraphTest, DensityComputation) {
  SocialGraph g(4);  // 6 possible edges.
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  EXPECT_NEAR(g.Density(), 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(SocialGraph(1).Density(), 0.0);
}

TEST(SocialGraphTest, FromHeterogeneousNetwork) {
  HeterogeneousNetwork net;
  net.AddNodes(NodeType::kUser, 3);
  net.AddEdge(EdgeType::kFriend, 0, 2);
  const SocialGraph g = SocialGraph::FromHeterogeneousNetwork(net);
  EXPECT_EQ(g.num_users(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(UserPairTest, MakeUserPairNormalises) {
  const UserPair p = MakeUserPair(5, 2);
  EXPECT_EQ(p.u, 2u);
  EXPECT_EQ(p.v, 5u);
  EXPECT_TRUE((UserPair{1, 2} < UserPair{1, 3}));
  EXPECT_TRUE((UserPair{1, 9} < UserPair{2, 0}));
}

TEST(AnchorLinksTest, OneToOneConstraint) {
  AnchorLinks anchors(3, 3);
  ASSERT_TRUE(anchors.Add(0, 1).ok());
  EXPECT_FALSE(anchors.Add(0, 2).ok());  // Left already anchored.
  EXPECT_FALSE(anchors.Add(2, 1).ok());  // Right already anchored.
  ASSERT_TRUE(anchors.Add(1, 0).ok());
  EXPECT_EQ(anchors.size(), 2u);
}

TEST(AnchorLinksTest, Lookups) {
  AnchorLinks anchors(3, 4);
  anchors.Add(1, 3);
  EXPECT_EQ(anchors.RightOf(1).value(), 3u);
  EXPECT_EQ(anchors.LeftOf(3).value(), 1u);
  EXPECT_FALSE(anchors.RightOf(0).has_value());
  EXPECT_FALSE(anchors.RightOf(99).has_value());
  EXPECT_TRUE(anchors.Contains(1, 3));
  EXPECT_FALSE(anchors.Contains(1, 2));
}

TEST(AnchorLinksTest, OutOfRangeRejected) {
  AnchorLinks anchors(2, 2);
  EXPECT_FALSE(anchors.Add(5, 0).ok());
  EXPECT_FALSE(anchors.Add(0, 5).ok());
}

TEST(AnchorLinksTest, SamplingKeepsRequestedFraction) {
  AnchorLinks anchors(10, 10);
  for (std::size_t i = 0; i < 10; ++i) anchors.Add(i, i);
  Rng rng(5);
  EXPECT_EQ(anchors.Sampled(0.0, rng).size(), 0u);
  EXPECT_EQ(anchors.Sampled(0.5, rng).size(), 5u);
  EXPECT_EQ(anchors.Sampled(1.0, rng).size(), 10u);
  EXPECT_EQ(anchors.Sampled(0.31, rng).size(), 4u);  // ceil(3.1).
  // Sampled links are a subset of the originals.
  const AnchorLinks half = anchors.Sampled(0.5, rng);
  for (const auto& [l, r] : half.pairs()) EXPECT_TRUE(anchors.Contains(l, r));
}

TEST(AlignedNetworksTest, BundleAccessors) {
  HeterogeneousNetwork target("t");
  target.AddNodes(NodeType::kUser, 3);
  HeterogeneousNetwork source("s");
  source.AddNodes(NodeType::kUser, 4);
  AnchorLinks anchors(3, 4);
  anchors.Add(0, 0);

  AlignedNetworks bundle(std::move(target));
  const std::size_t idx = bundle.AddSource(std::move(source),
                                           std::move(anchors));
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(bundle.num_sources(), 1u);
  EXPECT_EQ(bundle.target().NumUsers(), 3u);
  EXPECT_EQ(bundle.source(0).NumUsers(), 4u);
  EXPECT_EQ(bundle.anchors(0).size(), 1u);

  AnchorLinks fresh(3, 4);
  bundle.SetAnchors(0, std::move(fresh));
  EXPECT_EQ(bundle.anchors(0).size(), 0u);
}

}  // namespace
}  // namespace slampred
