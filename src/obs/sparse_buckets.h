// Sparse bucket counts for fixed-edge histograms.
//
// obs::LatencyHistogram and stats::QuantileSketch both bucket values by
// fixed edges, and most of the campaign's histograms (one per series
// window, attribution phase, country sketch) see a handful of samples,
// so a dense count array would be almost all zeros. SparseBuckets keeps
// only the non-zero buckets, as (bucket index, count) cells sorted by
// index: an empty store owns no heap, recording is a binary search plus
// at most one insert, and merge is one linear merge-join of two sorted
// runs. Both classes place values by one LogBuckets rule over their own
// geometry; the quantile rule stays with each histogram class. Counts are
// integers, so merging stays commutative and associative: merged stores
// are equal for every merge order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dohperf::obs {

/// Log-spaced bucket geometry: bucket 0 holds values below `lowest` (and
/// NaN), buckets 1..log_buckets split [lowest, top) into `per_octave`
/// buckets per doubling, and bucket log_buckets + 1 holds top and above.
struct LogBuckets {
  int per_octave;
  double lowest;
  int log_buckets;

  /// Lower edge of bucket `i` (1 <= i <= log_buckets + 1):
  /// lowest * 2^((i - 1) / per_octave). Edge log_buckets + 1 is the top.
  [[nodiscard]] double lower_edge(std::size_t i) const;
  /// The bucket holding `value`: every bucket i is exactly
  /// [lower_edge(i), lower_edge(i + 1)), whatever log2 rounds to.
  [[nodiscard]] std::size_t index(double value) const;
};

class SparseBuckets {
 public:
  /// Bucket indices fit 16 bits; histograms static_assert their size.
  static constexpr std::size_t kMaxBuckets = 1u << 16;

  /// One non-zero bucket.
  struct Cell {
    std::uint16_t bucket = 0;
    std::uint64_t count = 0;

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  /// Adds one to `bucket`'s count (`bucket` < kMaxBuckets).
  void add(std::size_t bucket);

  /// Sums `other` into this store, bucket by bucket.
  void merge(const SparseBuckets& other);

  /// Count of `bucket` (0 for a bucket never added to).
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const;
  /// Sum of every bucket's count.
  [[nodiscard]] std::uint64_t total() const;
  /// The non-zero buckets in ascending bucket order.
  [[nodiscard]] std::span<const Cell> cells() const { return cells_; }

  /// Equal exactly when every bucket count is equal: no cell is ever 0.
  friend bool operator==(const SparseBuckets&,
                         const SparseBuckets&) = default;

 private:
  std::vector<Cell> cells_;
};

}  // namespace dohperf::obs
