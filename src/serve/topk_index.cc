#include "serve/topk_index.h"

#include <utility>

#include "core/scoring_session.h"

namespace slampred {

TopKRowOrder BuildTopKRowOrder(const ScoringSession& session, std::size_t u) {
  return session.scores().RowOrder(u);
}

TopKIndex::TopKIndex(std::size_t max_resident_rows)
    : max_resident_rows_(max_resident_rows == 0 ? 1 : max_resident_rows) {}

std::shared_ptr<const TopKRowOrder> TopKIndex::Row(
    const ScoringSession& session, std::size_t u) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rows_.find(u);
    if (it != rows_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.order;
    }
  }

  // Build outside the lock: concurrent misses on different rows sort in
  // parallel. A racing build of the same row produces the identical
  // order; the first insert wins and the loser adopts it.
  auto built =
      std::make_shared<const TopKRowOrder>(BuildTopKRowOrder(session, u));

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(u);
  if (it != rows_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.order;
  }
  ++builds_;
  lru_.push_front(u);
  rows_.emplace(u, Entry{built, lru_.begin()});
  while (rows_.size() > max_resident_rows_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    rows_.erase(victim);
    ++evictions_;
  }
  return built;
}

void TopKIndex::Insert(std::size_t u, TopKRowOrder order) {
  auto built = std::make_shared<const TopKRowOrder>(std::move(order));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(u);
  if (it != rows_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(u);
  rows_.emplace(u, Entry{std::move(built), lru_.begin()});
  while (rows_.size() > max_resident_rows_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    rows_.erase(victim);
    ++evictions_;
  }
}

std::shared_ptr<const TopKRowOrder> TopKIndex::Peek(std::size_t u) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(u);
  return it == rows_.end() ? nullptr : it->second.order;
}

std::size_t TopKIndex::resident_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

std::size_t TopKIndex::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

std::size_t TopKIndex::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace slampred
