// Plain-text serialisation of heterogeneous networks and anchor links,
// so the library can be driven by real datasets (or inspected) without
// recompiling. The format is line-oriented:
//
//   # comments and blank lines are ignored
//   network <name>
//   nodes <node-type> <count>          e.g. "nodes user 5223"
//   edge <edge-type> <src> <dst>       e.g. "edge friend 12 85"
//
// and for anchor links:
//
//   anchors <left-user-count> <right-user-count>
//   anchor <left> <right>
//
// Malformed input never aborts the process. Under the default strict
// policy the first bad record fails the parse with a line-numbered
// Status; under the lenient policy bad records are skipped and counted
// in ParseStats, and the parse succeeds with whatever was salvageable.
// A number past 2^64 − 1 is malformed (it is not wrapped), and so is a
// node or anchor count over kMaxParsedCount, so a file cannot make the
// parser allocate more than that many users per node type or side.

#ifndef SLAMPRED_GRAPH_GRAPH_IO_H_
#define SLAMPRED_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <string>

#include "graph/anchor_links.h"
#include "graph/heterogeneous_network.h"
#include "util/status.h"

namespace slampred {

/// Largest count a parse accepts: per node type (the running total of
/// its `nodes` lines) and per side of an `anchors` header. 2^24 users
/// is over 160 times the largest bundle the generators write (the
/// 100k-user scale-out default), and bounds the parser's allocations.
inline constexpr std::size_t kMaxParsedCount = std::size_t{1} << 24;

/// What to do with a malformed, out-of-range or duplicate record.
enum class ParsePolicy {
  kStrict,   ///< First bad record fails the parse (line-numbered Status).
  kLenient,  ///< Bad records are skipped and counted; the parse succeeds.
};

/// Parse controls.
struct ParseOptions {
  ParsePolicy policy = ParsePolicy::kStrict;
};

/// What a (lenient) parse encountered. All zero / OK on clean input.
struct ParseStats {
  std::size_t lines_total = 0;      ///< Non-comment, non-blank lines seen.
  std::size_t lines_skipped = 0;    ///< Bad records skipped (lenient only).
  std::size_t duplicate_edges = 0;  ///< Duplicate edge/anchor records.
  Status first_error;               ///< First problem found (OK if none).
};

/// Serialises a network to the text format.
std::string SerializeNetwork(const HeterogeneousNetwork& network);

/// Parses a network from the text format under `options`, reporting
/// per-record problems into `stats` (may be null). Strict mode fails
/// with a line-numbered kInvalidArgument / kOutOfRange on the first bad
/// record (duplicates included); lenient mode skips and counts them.
Result<HeterogeneousNetwork> ParseNetwork(const std::string& text,
                                          const ParseOptions& options,
                                          ParseStats* stats = nullptr);

/// Strict parse (back-compatible convenience overload).
Result<HeterogeneousNetwork> ParseNetwork(const std::string& text);

/// Writes a network to `path`.
Status SaveNetwork(const HeterogeneousNetwork& network,
                   const std::string& path);

/// Reads a network from `path` under `options`.
Result<HeterogeneousNetwork> LoadNetwork(const std::string& path,
                                         const ParseOptions& options,
                                         ParseStats* stats = nullptr);

/// Strict load (back-compatible convenience overload).
Result<HeterogeneousNetwork> LoadNetwork(const std::string& path);

/// Serialises anchor links to the text format.
std::string SerializeAnchors(const AnchorLinks& anchors);

/// Parses anchor links from the text format under `options`; same
/// strict/lenient semantics as ParseNetwork.
Result<AnchorLinks> ParseAnchors(const std::string& text,
                                 const ParseOptions& options,
                                 ParseStats* stats = nullptr);

/// Strict parse (back-compatible convenience overload).
Result<AnchorLinks> ParseAnchors(const std::string& text);

/// Writes anchor links to `path`.
Status SaveAnchors(const AnchorLinks& anchors, const std::string& path);

/// Reads anchor links from `path` under `options`.
Result<AnchorLinks> LoadAnchors(const std::string& path,
                                const ParseOptions& options,
                                ParseStats* stats = nullptr);

/// Strict load (back-compatible convenience overload).
Result<AnchorLinks> LoadAnchors(const std::string& path);

}  // namespace slampred

#endif  // SLAMPRED_GRAPH_GRAPH_IO_H_
