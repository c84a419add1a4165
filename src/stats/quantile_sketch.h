// A mergeable, deterministic quantile sketch.
//
// Fixed log-spaced buckets (1/32 octave, ~2.2% relative width) over the
// latency range the campaign produces, plus underflow/overflow buckets
// and exact min/max. Because the bucket edges are compile-time constants,
// merging two sketches is bucket-wise integer addition — commutative,
// associative, and therefore bit-identical for any shard count or merge
// order, which is the property the streaming campaign's determinism gate
// rests on. Quantile queries interpolate within a bucket and are a pure
// function of the (merged) counts, never of insertion order.
//
// Contrast with stats::EmpiricalCdf, which retains the full sample: a
// sketch stores only its non-zero buckets (obs::SparseBuckets), so it is
// 48 bytes empty plus 16 bytes per occupied bucket, at most 770 of them
// (~12 KB) however many values it absorbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/sparse_buckets.h"

namespace dohperf::stats {

class QuantileSketch {
 public:
  /// Bucket geometry: kBucketsPerOctave buckets per doubling, spanning
  /// [kMinValue, kMaxValue); values outside land in the underflow /
  /// overflow buckets and are still bounded by the exact min/max.
  static constexpr int kBucketsPerOctave = 32;
  static constexpr int kOctaves = 24;  // 2^-4 .. 2^20 (0.0625 .. ~1e6 ms)
  static constexpr double kMinValue = 0.0625;
  static constexpr int kLogBuckets = kBucketsPerOctave * kOctaves;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kLogBuckets) + 2;  // + underflow + overflow
  static_assert(kBuckets <= obs::SparseBuckets::kMaxBuckets);
  static constexpr obs::LogBuckets kGeometry{kBucketsPerOctave, kMinValue,
                                             kLogBuckets};

  /// Bucket of `value`: 0 below kMinValue (and for NaN), kBuckets - 1
  /// from the range top (+inf included).
  [[nodiscard]] static std::size_t bucket_index(double value);
  /// Lower edge of `bucket` (0 for the underflow bucket).
  [[nodiscard]] static double lower_edge(std::size_t bucket);

  /// Counts `value`; NaN lands in the underflow bucket and never becomes
  /// the min or max while a number has been recorded.
  void record(double value);

  /// Bucket-wise addition; min/max combine. Order-canonical:
  /// a.merge(b) == b.merge(a).
  void merge(const QuantileSketch& other);

  /// Interpolated quantile estimate; NaN when empty. q is clamped to
  /// [0,1]; q=0 / q=1 return the exact min / max.
  [[nodiscard]] double quantile(double q) const;

  /// (value, cumulative_fraction) pairs on `points` evenly spaced
  /// quantiles — the sketch analogue of EmpiricalCdf::curve().
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t points = 100) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const {
    return buckets_.count(bucket);
  }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  bool operator==(const QuantileSketch&) const = default;

 private:
  obs::SparseBuckets buckets_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dohperf::stats
