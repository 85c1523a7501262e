#include "graph/graph_io.h"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "util/fault_injection.h"
#include "util/string_util.h"

namespace slampred {

namespace {

std::optional<NodeType> NodeTypeFromName(const std::string& name) {
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    const NodeType type = static_cast<NodeType>(t);
    if (name == NodeTypeName(type)) return type;
  }
  return std::nullopt;
}

std::optional<EdgeType> EdgeTypeFromName(const std::string& name) {
  for (std::size_t e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType type = static_cast<EdgeType>(e);
    if (name == EdgeTypeName(type)) return type;
  }
  return std::nullopt;
}

Status LineError(std::size_t line_number, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + message);
}

// Decimal size_t; false on an empty token, a non-digit or a value past
// SIZE_MAX (which would otherwise wrap).
bool ParseSize(const std::string& token, std::size_t* out) {
  if (token.empty()) return false;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// A node or anchor count the parser may allocate for.
bool ParseCount(const std::string& token, std::size_t* out) {
  return ParseSize(token, out) && *out <= kMaxParsedCount;
}

std::string CountLimit() {
  return " (a count is at most " + std::to_string(kMaxParsedCount) + ")";
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << content;
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

// Routes one bad record through the parse policy. Records the error in
// `stats` and returns OK when the caller should skip the record
// (lenient), or the line-tagged error itself when the caller should
// fail the parse (strict).
Status HandleBadRecord(const ParseOptions& options, ParseStats* stats,
                       Status error) {
  if (stats != nullptr && stats->first_error.ok()) {
    stats->first_error = error;
  }
  if (options.policy == ParsePolicy::kLenient) {
    if (stats != nullptr) ++stats->lines_skipped;
    return Status::OK();
  }
  return error;
}

// Checks the "graph_io.parse" injection site for this record. Returns
// the Status to treat the record as having failed with, or OK.
Status InjectedParseFault(std::size_t line_number) {
  switch (SLAMPRED_FAULT_HIT("graph_io.parse")) {
    case FaultKind::kNone:
    case FaultKind::kStall:
      break;
    case FaultKind::kFailIo:
      return Status::IoError("line " + std::to_string(line_number) +
                             ": injected I/O fault");
    default:
      return LineError(line_number, "injected parse fault");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeNetwork(const HeterogeneousNetwork& network) {
  std::string out = "# slampred heterogeneous network v1\n";
  out += "network " + network.name() + "\n";
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    const NodeType type = static_cast<NodeType>(t);
    if (network.NumNodes(type) == 0) continue;
    out += "nodes " + std::string(NodeTypeName(type)) + " " +
           std::to_string(network.NumNodes(type)) + "\n";
  }
  for (std::size_t e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType type = static_cast<EdgeType>(e);
    const std::size_t src_count = network.NumNodes(EdgeSourceType(type));
    for (std::size_t src = 0; src < src_count; ++src) {
      for (std::size_t dst : network.Neighbors(type, src)) {
        // Friend edges are stored both ways; emit each pair once.
        if (type == EdgeType::kFriend && dst < src) continue;
        out += "edge " + std::string(EdgeTypeName(type)) + " " +
               std::to_string(src) + " " + std::to_string(dst) + "\n";
      }
    }
  }
  return out;
}

Result<HeterogeneousNetwork> ParseNetwork(const std::string& text,
                                          const ParseOptions& options,
                                          ParseStats* stats) {
  HeterogeneousNetwork network("network");
  std::istringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (stats != nullptr) ++stats->lines_total;

    const Status injected = InjectedParseFault(line_number);
    if (!injected.ok()) {
      const Status handled = HandleBadRecord(options, stats, injected);
      if (!handled.ok()) return handled;
      continue;
    }

    const std::vector<std::string> tokens = Split(line, ' ');
    if (tokens[0] == "network") {
      if (tokens.size() != 2) {
        const Status handled = HandleBadRecord(
            options, stats, LineError(line_number, "expected 'network <name>'"));
        if (!handled.ok()) return handled;
        continue;
      }
      network = HeterogeneousNetwork(tokens[1]);
      continue;
    }
    if (tokens[0] == "nodes") {
      Status problem;
      const auto type =
          tokens.size() == 3 ? NodeTypeFromName(tokens[1]) : std::nullopt;
      std::size_t count = 0;
      if (tokens.size() != 3) {
        problem = LineError(line_number, "expected 'nodes <type> <count>'");
      } else if (!type.has_value()) {
        problem = LineError(line_number, "unknown node type " + tokens[1]);
      } else if (!ParseCount(tokens[2], &count)) {
        problem = LineError(line_number, "bad count " + tokens[2] + CountLimit());
      } else if (count > kMaxParsedCount -
                             network.NumNodes(type.value_or(NodeType::kUser))) {
        problem = LineError(line_number, "total " + tokens[1] +
                                             " count exceeds the limit" +
                                             CountLimit());
      }
      if (!problem.ok()) {
        const Status handled = HandleBadRecord(options, stats, problem);
        if (!handled.ok()) return handled;
        continue;
      }
      // value_or keeps the deref branch-free for the optimizer; the
      // fallback is unreachable (problem is set whenever type is empty).
      network.AddNodes(type.value_or(NodeType::kUser), count);
      continue;
    }
    if (tokens[0] == "edge") {
      Status problem;
      const auto type =
          tokens.size() == 4 ? EdgeTypeFromName(tokens[1]) : std::nullopt;
      std::size_t src = 0;
      std::size_t dst = 0;
      if (tokens.size() != 4) {
        problem = LineError(line_number, "expected 'edge <type> <src> <dst>'");
      } else if (!type.has_value()) {
        problem = LineError(line_number, "unknown edge type " + tokens[1]);
      } else if (!ParseSize(tokens[2], &src) || !ParseSize(tokens[3], &dst)) {
        problem = LineError(line_number, "bad endpoints");
      }
      if (!problem.ok()) {
        const Status handled = HandleBadRecord(options, stats, problem);
        if (!handled.ok()) return handled;
        continue;
      }
      const EdgeType edge_type = type.value_or(EdgeType::kFriend);
      if (network.HasEdge(edge_type, src, dst)) {
        // Duplicate record: an error in strict mode, a dedicated counter
        // in lenient mode (the edge itself is already present either way).
        if (options.policy == ParsePolicy::kStrict) {
          return LineError(line_number, "duplicate edge");
        }
        if (stats != nullptr) {
          ++stats->duplicate_edges;
          if (stats->first_error.ok()) {
            stats->first_error = LineError(line_number, "duplicate edge");
          }
        }
        continue;
      }
      const Status added = network.AddEdge(edge_type, src, dst);
      if (!added.ok()) {
        const Status handled = HandleBadRecord(
            options, stats, LineError(line_number, added.message()));
        if (!handled.ok()) return handled;
        continue;
      }
      continue;
    }
    const Status handled = HandleBadRecord(
        options, stats, LineError(line_number, "unknown directive " + tokens[0]));
    if (!handled.ok()) return handled;
  }
  return network;
}

Result<HeterogeneousNetwork> ParseNetwork(const std::string& text) {
  return ParseNetwork(text, ParseOptions{});
}

Status SaveNetwork(const HeterogeneousNetwork& network,
                   const std::string& path) {
  return WriteFile(path, SerializeNetwork(network));
}

Result<HeterogeneousNetwork> LoadNetwork(const std::string& path,
                                         const ParseOptions& options,
                                         ParseStats* stats) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseNetwork(text.value(), options, stats);
}

Result<HeterogeneousNetwork> LoadNetwork(const std::string& path) {
  return LoadNetwork(path, ParseOptions{});
}

std::string SerializeAnchors(const AnchorLinks& anchors) {
  std::string out = "# slampred anchor links v1\n";
  out += "anchors " + std::to_string(anchors.left_users()) + " " +
         std::to_string(anchors.right_users()) + "\n";
  for (const auto& [left, right] : anchors.pairs()) {
    out += "anchor " + std::to_string(left) + " " + std::to_string(right) +
           "\n";
  }
  return out;
}

Result<AnchorLinks> ParseAnchors(const std::string& text,
                                 const ParseOptions& options,
                                 ParseStats* stats) {
  std::istringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  std::optional<AnchorLinks> anchors;
  while (std::getline(stream, line)) {
    ++line_number;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (stats != nullptr) ++stats->lines_total;

    const Status injected = InjectedParseFault(line_number);
    if (!injected.ok()) {
      const Status handled = HandleBadRecord(options, stats, injected);
      if (!handled.ok()) return handled;
      continue;
    }

    const std::vector<std::string> tokens = Split(line, ' ');
    if (tokens[0] == "anchors") {
      Status problem;
      std::size_t left = 0;
      std::size_t right = 0;
      if (tokens.size() != 3) {
        problem = LineError(line_number, "expected 'anchors <left> <right>'");
      } else if (!ParseCount(tokens[1], &left) ||
                 !ParseCount(tokens[2], &right)) {
        problem = LineError(line_number, "bad user counts" + CountLimit());
      }
      if (!problem.ok()) {
        const Status handled = HandleBadRecord(options, stats, problem);
        if (!handled.ok()) return handled;
        continue;
      }
      anchors.emplace(left, right);
      continue;
    }
    if (tokens[0] == "anchor") {
      Status problem;
      std::size_t left = 0;
      std::size_t right = 0;
      if (!anchors.has_value()) {
        problem = LineError(line_number, "'anchor' before 'anchors' header");
      } else if (tokens.size() != 3) {
        problem = LineError(line_number, "expected 'anchor <left> <right>'");
      } else if (!ParseSize(tokens[1], &left) ||
                 !ParseSize(tokens[2], &right)) {
        problem = LineError(line_number, "bad endpoints");
      }
      if (!problem.ok()) {
        const Status handled = HandleBadRecord(options, stats, problem);
        if (!handled.ok()) return handled;
        continue;
      }
      if (anchors->Contains(left, right)) {
        if (options.policy == ParsePolicy::kStrict) {
          return LineError(line_number, "duplicate anchor");
        }
        if (stats != nullptr) {
          ++stats->duplicate_edges;
          if (stats->first_error.ok()) {
            stats->first_error = LineError(line_number, "duplicate anchor");
          }
        }
        continue;
      }
      const Status added = anchors->Add(left, right);
      if (!added.ok()) {
        const Status handled = HandleBadRecord(
            options, stats, LineError(line_number, added.message()));
        if (!handled.ok()) return handled;
        continue;
      }
      continue;
    }
    const Status handled = HandleBadRecord(
        options, stats, LineError(line_number, "unknown directive " + tokens[0]));
    if (!handled.ok()) return handled;
  }
  if (!anchors.has_value()) {
    return Status::InvalidArgument("missing 'anchors' header");
  }
  return std::move(*anchors);
}

Result<AnchorLinks> ParseAnchors(const std::string& text) {
  return ParseAnchors(text, ParseOptions{});
}

Status SaveAnchors(const AnchorLinks& anchors, const std::string& path) {
  return WriteFile(path, SerializeAnchors(anchors));
}

Result<AnchorLinks> LoadAnchors(const std::string& path,
                                const ParseOptions& options,
                                ParseStats* stats) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseAnchors(text.value(), options, stats);
}

Result<AnchorLinks> LoadAnchors(const std::string& path) {
  return LoadAnchors(path, ParseOptions{});
}

}  // namespace slampred
