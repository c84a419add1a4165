#include "obs/metrics.h"

#include <cmath>
#include <limits>

namespace dohperf::obs {

int LatencyHistogram::bucket_index(double ms) {
  if (!(ms >= 1.0)) return 0;  // underflow (and NaN) bucket
  // Compared before the int conversion, which +inf would overflow.
  const double quarter_octaves = 4.0 * std::log2(ms);
  if (!(quarter_octaves < kBucketCount - 1)) return kBucketCount - 1;
  int i = 1 + static_cast<int>(quarter_octaves);
  // log2 rounding can land an exact edge value one bucket off; nudge so
  // the edges are exactly [lower, upper) as bucket_lower_ms advertises.
  if (ms >= bucket_upper_ms(i)) {
    ++i;
  } else if (i > 1 && ms < bucket_lower_ms(i)) {
    --i;
  }
  return i >= kBucketCount ? kBucketCount - 1 : i;
}

double LatencyHistogram::bucket_lower_ms(int i) {
  if (i <= 0) return 0.0;
  return std::exp2(static_cast<double>(i - 1) / 4.0);
}

double LatencyHistogram::bucket_upper_ms(int i) {
  if (i >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::exp2(static_cast<double>(i) / 4.0);
}

double LatencyHistogram::quantile_ms(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank as an integer ceiling so the answer never depends on
  // floating-point accumulation order.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cumulative = 0;
  for (const SparseBuckets::Cell& cell : buckets_.cells()) {
    cumulative += cell.count;
    if (cumulative >= target) {
      const int i = cell.bucket;
      // The last bucket's upper edge is infinite; report its lower edge.
      return i == kBucketCount - 1 ? bucket_lower_ms(i) : bucket_upper_ms(i);
    }
  }
  return bucket_lower_ms(kBucketCount - 1);
}

LatencyHistogram& Metrics::histogram(std::string_view name) {
  return histograms_[std::string(name)];
}

const LatencyHistogram* Metrics::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(std::string(name));
  return it == histograms_.end() ? nullptr : &it->second;
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, member] : kCounterFields) {
    counters.*member += other.counters.*member;
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void Metrics::clear() {
  counters = MetricCounters{};
  histograms_.clear();
}

}  // namespace dohperf::obs
