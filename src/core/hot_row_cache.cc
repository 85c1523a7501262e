#include "core/hot_row_cache.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/binary_io.h"

namespace slampred {

void HotRowCache::AddRow(HotRow row) {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), row.user,
      [](const HotRow& r, std::uint32_t user) { return r.user < user; });
  if (it != rows_.end() && it->user == row.user) {
    *it = std::move(row);
  } else {
    rows_.insert(it, std::move(row));
  }
}

const HotRow* HotRowCache::Find(std::uint32_t user) const {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), user,
      [](const HotRow& r, std::uint32_t u) { return r.user < u; });
  if (it == rows_.end() || it->user != user) return nullptr;
  return &*it;
}

std::size_t HotRowCache::EstimatedBytes() const {
  std::size_t bytes = rows_.size() * sizeof(HotRow);
  for (const HotRow& row : rows_) {
    bytes += row.entries.size() * sizeof(HotRowEntry);
  }
  return bytes;
}

void HotRowCache::Serialize(BinaryWriter& writer) const {
  writer.WriteU64(rows_.size());
  for (const HotRow& row : rows_) {
    writer.WriteU32(row.user);
    writer.WriteBool(row.complete);
    writer.WriteU64(row.entries.size());
    for (const HotRowEntry& e : row.entries) {
      writer.WriteU32(e.v);
      writer.WriteDouble(e.score);
    }
  }
}

Result<HotRowCache> HotRowCache::Deserialize(BinaryReader& reader) {
  auto count = reader.ReadU64();
  if (!count.ok()) return count.status();
  HotRowCache cache;
  cache.rows_.reserve(std::min<std::uint64_t>(count.value(), 1u << 20));
  bool first = true;
  std::uint32_t prev_user = 0;
  for (std::uint64_t r = 0; r < count.value(); ++r) {
    auto user = reader.ReadU32();
    if (!user.ok()) return user.status();
    auto complete = reader.ReadBool();
    if (!complete.ok()) return complete.status();
    auto entry_count = reader.ReadU64();
    if (!entry_count.ok()) return entry_count.status();
    if (!first && user.value() <= prev_user) {
      return Status::IoError("hot-row users not strictly ascending: " +
                             std::to_string(user.value()) + " after " +
                             std::to_string(prev_user));
    }
    first = false;
    prev_user = user.value();
    // Each entry costs 12 bytes; bound the allocation by what can
    // actually be present, dividing so that no count wraps the product.
    if (entry_count.value() > reader.remaining() / 12) {
      return reader.Truncated(
          static_cast<std::size_t>(entry_count.value()) * 12,
          "hot-row entries");
    }
    HotRow row;
    row.user = user.value();
    row.complete = complete.value();
    row.entries.resize(static_cast<std::size_t>(entry_count.value()));
    for (HotRowEntry& e : row.entries) {
      auto v = reader.ReadU32();
      if (!v.ok()) return v.status();
      auto score = reader.ReadDouble();
      if (!score.ok()) return score.status();
      e.v = v.value();
      e.score = score.value();
      if (e.v == row.user) {
        return Status::IoError("hot row for user " + std::to_string(row.user) +
                               " ranks the user itself");
      }
      if (!std::isfinite(e.score)) {
        return Status::IoError("hot row for user " + std::to_string(row.user) +
                               " holds a non-finite score");
      }
    }
    // The prefix must be in exact serve order (score descending,
    // candidate ascending on ties) or cached answers would diverge
    // from lazily-built ones.
    for (std::size_t k = 1; k < row.entries.size(); ++k) {
      const HotRowEntry& a = row.entries[k - 1];
      const HotRowEntry& b = row.entries[k];
      const bool ordered = a.score > b.score || (a.score == b.score && a.v < b.v);
      if (!ordered) {
        return Status::IoError("hot row for user " + std::to_string(row.user) +
                               " violates serve order at entry " +
                               std::to_string(k));
      }
    }
    cache.rows_.push_back(std::move(row));
  }
  return cache;
}

bool HotRowCache::operator==(const HotRowCache& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].user != other.rows_[i].user ||
        rows_[i].complete != other.rows_[i].complete ||
        rows_[i].entries != other.rows_[i].entries) {
      return false;
    }
  }
  return true;
}

HotRow SnapshotHotRow(const ScoreSource& scores, std::uint32_t user,
                      const TopKRowOrder& order, std::size_t max_entries) {
  HotRow row;
  row.user = user;
  row.complete = order.size() <= max_entries;
  const std::size_t keep = std::min(order.size(), max_entries);
  row.entries.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    row.entries.push_back({order[i], scores.At(user, order[i])});
  }
  return row;
}

}  // namespace slampred
