#include "obs/sparse_buckets.h"

#include <algorithm>

namespace dohperf::obs {
namespace {

bool before(const SparseBuckets::Cell& cell, std::uint16_t bucket) {
  return cell.bucket < bucket;
}

}  // namespace

void SparseBuckets::add(std::size_t bucket) {
  const auto b = static_cast<std::uint16_t>(bucket);
  const auto it = std::lower_bound(cells_.begin(), cells_.end(), b, before);
  if (it != cells_.end() && it->bucket == b) {
    ++it->count;
  } else {
    cells_.insert(it, Cell{b, 1});
  }
}

void SparseBuckets::merge(const SparseBuckets& other) {
  const std::vector<Cell>& theirs = other.cells_;
  if (theirs.empty()) return;
  if (cells_.empty()) {
    cells_ = theirs;
    return;
  }
  // Pass 1: how many of their buckets are new to this store.
  std::size_t added = 0;
  for (std::size_t i = 0, j = 0; j < theirs.size(); ++j) {
    while (i < cells_.size() && cells_[i].bucket < theirs[j].bucket) ++i;
    if (i == cells_.size() || cells_[i].bucket != theirs[j].bucket) ++added;
  }
  // Pass 2: merge-join from the back into the grown array, so every cell
  // of ours is read before its slot is written.
  std::size_t i = cells_.size();
  std::size_t j = theirs.size();
  std::size_t out = i + added;
  cells_.resize(out);
  while (j > 0) {
    const Cell& t = theirs[j - 1];
    if (i > 0 && cells_[i - 1].bucket > t.bucket) {
      cells_[--out] = cells_[--i];
    } else if (i > 0 && cells_[i - 1].bucket == t.bucket) {
      cells_[--out] = Cell{t.bucket, cells_[--i].count + t.count};
      --j;
    } else {
      cells_[--out] = t;
      --j;
    }
  }
  // Cells [0, i) of ours precede every bucket of theirs and stay put.
}

std::uint64_t SparseBuckets::count(std::size_t bucket) const {
  if (bucket >= kMaxBuckets) return 0;
  const auto b = static_cast<std::uint16_t>(bucket);
  const auto it = std::lower_bound(cells_.begin(), cells_.end(), b, before);
  return it != cells_.end() && it->bucket == b ? it->count : 0;
}

std::uint64_t SparseBuckets::total() const {
  std::uint64_t sum = 0;
  for (const Cell& cell : cells_) sum += cell.count;
  return sum;
}

}  // namespace dohperf::obs
