#include "obs/sparse_buckets.h"

#include <algorithm>
#include <cmath>

namespace dohperf::obs {
namespace {

bool before(const SparseBuckets::Cell& cell, std::uint16_t bucket) {
  return cell.bucket < bucket;
}

}  // namespace

double LogBuckets::lower_edge(std::size_t i) const {
  return lowest * std::exp2(static_cast<double>(i - 1) /
                            static_cast<double>(per_octave));
}

std::size_t LogBuckets::index(double value) const {
  if (!(value >= lowest)) return 0;  // underflow (also NaN-safe)
  const auto overflow = static_cast<std::size_t>(log_buckets) + 1;
  const double scaled =
      static_cast<double>(per_octave) * std::log2(value / lowest);
  // Compared before the integer conversion, which +inf would overflow.
  if (!(scaled < static_cast<double>(overflow))) return overflow;
  std::size_t i = 1 + static_cast<std::size_t>(scaled);
  // log2 rounding can land a value next to an edge one bucket off; nudge
  // it so each bucket is exactly [lower_edge(i), lower_edge(i + 1)).
  if (i < overflow && value >= lower_edge(i + 1)) {
    ++i;
  } else if (i > 1 && value < lower_edge(i)) {
    --i;
  }
  return i;
}

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
