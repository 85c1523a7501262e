// Precomputed top-K row prefixes for a configurable hot-user set.
//
// A quantized artifact can carry, per hot user, the leading entries of
// that user's full score-row ordering (score descending, column
// ascending — the exact serve-side comparator), computed from the
// float artifact BEFORE the float payload is dropped. Serving a top-K
// request for a hot user then walks this prefix (skipping known links)
// and never touches the quantized payload, so hot rows are bit-equal
// to the order a float session would lazily build — the cache is an
// oracle snapshot, not a quantized approximation.
//
// Rows are stored sorted by user id; each row records whether its
// prefix is the COMPLETE ordering (short rows) or a bounded prefix.
// An insufficient prefix (k non-excluded entries not reachable and the
// row incomplete) makes the server fall back to the full path rather
// than serve a truncated answer.

#ifndef SLAMPRED_CORE_HOT_ROW_CACHE_H_
#define SLAMPRED_CORE_HOT_ROW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/score_source.h"
#include "util/status.h"

namespace slampred {

class BinaryReader;
class BinaryWriter;

/// One ranked candidate of a precomputed row.
struct HotRowEntry {
  std::uint32_t v = 0;  ///< Candidate user.
  double score = 0.0;   ///< Float-oracle score of (user, v).

  bool operator==(const HotRowEntry& other) const {
    return v == other.v && score == other.score;
  }
};

/// The precomputed prefix of one hot user's row ordering.
struct HotRow {
  std::uint32_t user = 0;
  /// True when `entries` is the user's ENTIRE ordering (all n−1
  /// candidates), so any k can be served from it.
  bool complete = false;
  /// Leading entries in serve order: score descending, v ascending on
  /// ties, never containing `user` itself.
  std::vector<HotRowEntry> entries;
};

/// Immutable-after-build collection of hot rows, keyed by user.
class HotRowCache {
 public:
  HotRowCache() = default;

  /// Inserts or replaces the row for `row.user`.
  void AddRow(HotRow row);

  /// The row for `user`, or nullptr when the user is not hot.
  const HotRow* Find(std::uint32_t user) const;

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Rows sorted by user id ascending.
  const std::vector<HotRow>& rows() const { return rows_; }

  /// Heap bytes held.
  std::size_t EstimatedBytes() const;

  /// Appends the cache (rows ascending by user) to `writer`.
  void Serialize(BinaryWriter& writer) const;

  /// Reads a cache written by Serialize. Truncation, users out of
  /// ascending order, self-referencing entries, non-finite scores, or
  /// entries violating the (score desc, v asc) serve order all fail
  /// with an offset-diagnosed kIoError — a corrupt cache is rejected,
  /// never served.
  static Result<HotRowCache> Deserialize(BinaryReader& reader);

  bool operator==(const HotRowCache& other) const;

 private:
  std::vector<HotRow> rows_;  // sorted by user ascending
};

/// The hot row of `user` under `scores`: the first `max_entries`
/// columns of `order` (the user's full serve order, scores.RowOrder)
/// with their scores, marked complete when the whole order fits.
HotRow SnapshotHotRow(const ScoreSource& scores, std::uint32_t user,
                      const TopKRowOrder& order, std::size_t max_entries);

}  // namespace slampred

#endif  // SLAMPRED_CORE_HOT_ROW_CACHE_H_
