#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dohperf::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The min and max of the recorded values, ignoring NaN (unless every
// value is NaN) and ordering -0 below +0, so both are a function of the
// recorded values alone, never of their record or merge order.
double lesser(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b) || a < b) return a;
  return a == b && std::signbit(a) ? a : b;
}

double greater(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b) || a > b) return a;
  return a == b && !std::signbit(a) ? a : b;
}

}  // namespace

std::size_t QuantileSketch::bucket_index(double value) {
  return kGeometry.index(value);
}

double QuantileSketch::lower_edge(std::size_t bucket) {
  // bucket 0 is underflow (edge 0); the overflow bucket starts at the
  // range top.
  return bucket == 0 ? 0.0 : kGeometry.lower_edge(bucket);
}

void QuantileSketch::record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = lesser(min_, value);
    max_ = greater(max_, value);
  }
  buckets_.add(bucket_index(value));
  ++count_;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = lesser(min_, other.min_);
    max_ = greater(max_, other.max_);
  }
  buckets_.merge(other.buckets_);
  count_ += other.count_;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;

  // Type-7 style continuous rank over the bucketed counts, interpolating
  // linearly between a bucket's clamped edges.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (const obs::SparseBuckets::Cell& cell : buckets_.cells()) {
    const std::size_t b = cell.bucket;
    const std::uint64_t n = cell.count;
    if (rank < static_cast<double>(before + n)) {
      const double lo = std::max(lower_edge(b), min_);
      const double hi =
          std::min(b + 1 < kBuckets ? lower_edge(b + 1) : max_, max_);
      const double f =
          (rank - static_cast<double>(before)) / static_cast<double>(n);
      return std::clamp(lo + f * (hi - lo), min_, max_);
    }
    before += n;
  }
  return max_;
}

std::vector<std::pair<double, double>> QuantileSketch::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points == 0) return out;
  out.reserve(points + 1);
  for (std::size_t i = 0; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace dohperf::stats
