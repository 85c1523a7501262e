// Tests for the text serialisation of networks and anchor links.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "datagen/aligned_generator.h"
#include "graph/graph_io.h"

namespace slampred {
namespace {

HeterogeneousNetwork SmallNetwork() {
  HeterogeneousNetwork net("demo");
  net.AddNodes(NodeType::kUser, 4);
  net.AddNodes(NodeType::kPost, 2);
  net.AddNodes(NodeType::kWord, 3);
  net.AddEdge(EdgeType::kFriend, 0, 1);
  net.AddEdge(EdgeType::kFriend, 2, 3);
  net.AddEdge(EdgeType::kWrite, 0, 0);
  net.AddEdge(EdgeType::kHasWord, 0, 2);
  return net;
}

TEST(GraphIoTest, NetworkRoundTrip) {
  const HeterogeneousNetwork original = SmallNetwork();
  auto parsed = ParseNetwork(SerializeNetwork(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HeterogeneousNetwork& net = parsed.value();
  EXPECT_EQ(net.name(), "demo");
  EXPECT_EQ(net.NumUsers(), 4u);
  EXPECT_EQ(net.NumNodes(NodeType::kPost), 2u);
  EXPECT_EQ(net.NumNodes(NodeType::kWord), 3u);
  EXPECT_EQ(net.NumEdges(EdgeType::kFriend), 2u);
  EXPECT_TRUE(net.HasEdge(EdgeType::kFriend, 1, 0));
  EXPECT_TRUE(net.HasEdge(EdgeType::kWrite, 0, 0));
  EXPECT_TRUE(net.HasEdge(EdgeType::kHasWord, 0, 2));
}

TEST(GraphIoTest, GeneratedNetworkRoundTrip) {
  AlignedGeneratorConfig config = DefaultExperimentConfig(5);
  config.population.num_personas = 60;
  auto generated = GenerateAligned(config);
  ASSERT_TRUE(generated.ok());
  const HeterogeneousNetwork& original = generated.value().networks.target();
  auto parsed = ParseNetwork(SerializeNetwork(original));
  ASSERT_TRUE(parsed.ok());
  for (std::size_t e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType type = static_cast<EdgeType>(e);
    EXPECT_EQ(parsed.value().NumEdges(type), original.NumEdges(type))
        << EdgeTypeName(type);
  }
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseNetwork(
      "# header\n\nnetwork x\n  # indented comment\nnodes user 2\n"
      "edge friend 0 1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().NumEdges(EdgeType::kFriend), 1u);
}

TEST(GraphIoTest, MalformedLinesReportLineNumber) {
  auto bad_directive = ParseNetwork("nodes user 2\nfrobnicate 1 2\n");
  ASSERT_FALSE(bad_directive.ok());
  EXPECT_NE(bad_directive.status().message().find("line 2"),
            std::string::npos);

  EXPECT_FALSE(ParseNetwork("nodes user\n").ok());
  EXPECT_FALSE(ParseNetwork("nodes gremlin 5\n").ok());
  EXPECT_FALSE(ParseNetwork("nodes user 2\nedge friend 0 9\n").ok());
  EXPECT_FALSE(ParseNetwork("nodes user 2\nedge friend 0 x\n").ok());
}

TEST(GraphIoTest, NetworkFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/slampred_net_test.txt";
  const HeterogeneousNetwork original = SmallNetwork();
  ASSERT_TRUE(SaveNetwork(original, path).ok());
  auto loaded = LoadNetwork(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(EdgeType::kFriend),
            original.NumEdges(EdgeType::kFriend));
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadNetwork("/no/such/file.txt").ok());
  EXPECT_FALSE(LoadAnchors("/no/such/file.txt").ok());
}

TEST(GraphIoTest, AnchorsRoundTrip) {
  AnchorLinks anchors(5, 7);
  anchors.Add(0, 3);
  anchors.Add(2, 6);
  auto parsed = ParseAnchors(SerializeAnchors(anchors));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().left_users(), 5u);
  EXPECT_EQ(parsed.value().right_users(), 7u);
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_TRUE(parsed.value().Contains(0, 3));
  EXPECT_TRUE(parsed.value().Contains(2, 6));
}

TEST(GraphIoTest, AnchorsRequireHeader) {
  EXPECT_FALSE(ParseAnchors("anchor 0 1\n").ok());
  EXPECT_FALSE(ParseAnchors("# only comments\n").ok());
}

TEST(GraphIoTest, AnchorsRejectConflicts) {
  auto parsed = ParseAnchors("anchors 3 3\nanchor 0 0\nanchor 0 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(GraphIoTest, TruncatedFileStrictFailsLenientRecovers) {
  // A tail cut mid-record, as after a partial write or disk-full.
  const std::string truncated =
      "network demo\nnodes user 4\nedge friend 0 1\nedge friend 2\n";

  auto strict = ParseNetwork(truncated);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 4"), std::string::npos);

  ParseStats stats;
  auto lenient =
      ParseNetwork(truncated, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.lines_total, 4u);
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_FALSE(stats.first_error.ok());
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 1u);
}

TEST(GraphIoTest, GarbageLineSkippedUnderLenientPolicy) {
  const std::string text =
      "nodes user 3\n<<<< merge conflict >>>>\nedge friend 0 2\n";
  EXPECT_FALSE(ParseNetwork(text).ok());

  ParseStats stats;
  auto lenient =
      ParseNetwork(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_NE(stats.first_error.message().find("line 2"), std::string::npos);
  EXPECT_TRUE(lenient.value().HasEdge(EdgeType::kFriend, 0, 2));
}

TEST(GraphIoTest, OutOfRangeNodeIdReportsLineUnderStrict) {
  const std::string text = "nodes user 2\nedge friend 0 1\nedge friend 1 7\n";
  auto strict = ParseNetwork(text);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);

  ParseStats stats;
  auto lenient =
      ParseNetwork(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 1u);
}

TEST(GraphIoTest, DuplicateEdgeStrictFailsWithLineNumber) {
  // Friend edges are undirected, so the reversed record is a duplicate.
  auto dup = ParseNetwork("nodes user 3\nedge friend 0 1\nedge friend 1 0\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(dup.status().message().find("duplicate edge"), std::string::npos);
}

TEST(GraphIoTest, DuplicateEdgeLenientCountsAndKeepsGraph) {
  ParseStats stats;
  auto lenient = ParseNetwork(
      "nodes user 3\nedge friend 0 1\nedge friend 1 0\nedge friend 1 2\n",
      ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(stats.duplicate_edges, 1u);
  EXPECT_EQ(stats.lines_skipped, 0u);  // Duplicates are counted, not skipped.
  EXPECT_NE(stats.first_error.message().find("duplicate edge"),
            std::string::npos);
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 2u);
}

TEST(GraphIoTest, CleanParsePopulatesStatsWithZeros) {
  ParseStats stats;
  auto parsed = ParseNetwork("nodes user 2\nedge friend 0 1\n",
                             ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(stats.lines_total, 2u);
  EXPECT_EQ(stats.lines_skipped, 0u);
  EXPECT_EQ(stats.duplicate_edges, 0u);
  EXPECT_TRUE(stats.first_error.ok());
}

TEST(GraphIoTest, DuplicateAnchorPolicies) {
  const std::string text = "anchors 3 3\nanchor 0 0\nanchor 0 0\nanchor 1 2\n";
  auto strict = ParseAnchors(text);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);

  ParseStats stats;
  auto lenient =
      ParseAnchors(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.duplicate_edges, 1u);
  EXPECT_EQ(lenient.value().size(), 2u);
}

TEST(GraphIoTest, LenientAnchorsSalvageConflicts) {
  // A conflicting re-anchor (0 already anchored to 0) is skipped.
  ParseStats stats;
  auto lenient =
      ParseAnchors("anchors 3 3\nanchor 0 0\nanchor 0 1\nanchor 2 2\n",
                   ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_EQ(lenient.value().size(), 2u);
  EXPECT_TRUE(lenient.value().Contains(0, 0));
  EXPECT_TRUE(lenient.value().Contains(2, 2));
}

TEST(GraphIoTest, AnchorsFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/slampred_anchor_test.txt";
  AnchorLinks anchors(3, 3);
  anchors.Add(1, 2);
  ASSERT_TRUE(SaveAnchors(anchors, path).ok());
  auto loaded = LoadAnchors(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().Contains(1, 2));
  std::remove(path.c_str());
}

// --- Numbers that overflow and counts the parser must not allocate ----
//
// Only the cap + 1 and 20-digit values appear below: a count that is
// accepted really allocates (and under ASan an oversized allocation
// aborts instead of throwing).

constexpr const char* kTwoToThe64 = "18446744073709551616";  // 20 digits.

// Requires the strict parse to fail naming `line`, and the lenient one
// to skip exactly one record.
template <typename Parse>
void ExpectRejectedAtLine(const std::string& text, std::size_t line,
                          Parse parse) {
  auto strict = parse(text, ParseOptions{}, nullptr);
  ASSERT_FALSE(strict.ok()) << text;
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("line " + std::to_string(line)),
            std::string::npos)
      << strict.status().ToString();
  ParseStats stats;
  auto lenient = parse(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.lines_skipped, 1u) << text;
}

auto ParseNetworkFn = [](const std::string& text, const ParseOptions& options,
                         ParseStats* stats) {
  return ParseNetwork(text, options, stats);
};
auto ParseAnchorsFn = [](const std::string& text, const ParseOptions& options,
                         ParseStats* stats) {
  return ParseAnchors(text, options, stats);
};

TEST(GraphIoTest, OverflowingEndpointIsRejectedNotWrapped) {
  // 2^64 used to wrap to 0, so the file's own (0, 46) then read as a
  // duplicate of the bad line.
  const std::string text = std::string("nodes user 50\nedge friend ") +
                           kTwoToThe64 + " 46\nedge friend 0 46\n";
  ExpectRejectedAtLine(text, 2, ParseNetworkFn);
  ParseStats stats;
  auto lenient =
      ParseNetwork(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(stats.duplicate_edges, 0u);
  EXPECT_TRUE(lenient.value().HasEdge(EdgeType::kFriend, 0, 46));
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 1u);
  ExpectRejectedAtLine("nodes user 50\nedge friend 1 99999999999999999999\n",
                       2, ParseNetworkFn);
}

TEST(GraphIoTest, NodeCountsAreCapped) {
  const std::string over = std::to_string(kMaxParsedCount + 1);
  ExpectRejectedAtLine("nodes user " + over + "\n", 1, ParseNetworkFn);
  ExpectRejectedAtLine(std::string("nodes word ") + kTwoToThe64 + "\n", 1,
                       ParseNetworkFn);
  // Each line under the cap, the running total over it: the second line
  // fails before anything is allocated for it.
  const std::string rest = std::to_string(kMaxParsedCount - 9);
  ExpectRejectedAtLine("nodes user 10\nnodes user " + rest + "\n", 2,
                       ParseNetworkFn);
  ParseStats stats;
  auto lenient = ParseNetwork("nodes user 10\nnodes user " + rest +
                                  "\nnodes user 5\nnodes post 3\n",
                              ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient.value().NumNodes(NodeType::kUser), 15u);
  EXPECT_EQ(lenient.value().NumNodes(NodeType::kPost), 3u);
}

TEST(GraphIoTest, AnchorCountsAreCapped) {
  const std::string over = std::to_string(kMaxParsedCount + 1);
  ExpectRejectedAtLine("anchors 4 4\nanchors " + over + " 5\n", 2,
                       ParseAnchorsFn);
  ExpectRejectedAtLine("anchors 4 4\nanchors 5 " + over + "\n", 2,
                       ParseAnchorsFn);
  ExpectRejectedAtLine(
      std::string("anchors 4 4\nanchors ") + kTwoToThe64 + " 5\n", 2,
      ParseAnchorsFn);
  ExpectRejectedAtLine(
      std::string("anchors 4 4\nanchor 1 ") + kTwoToThe64 + "\n", 2,
      ParseAnchorsFn);
  // Without a valid header nothing was allocated and the strict error
  // names the line.
  auto strict = ParseAnchors("anchors " + over + " 5\nanchor 0 0\n");
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace slampred
