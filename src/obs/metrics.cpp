#include "obs/metrics.h"

#include <cmath>
#include <limits>

namespace dohperf::obs {

int LatencyHistogram::bucket_index(double ms) {
  return static_cast<int>(kGeometry.index(ms));
}

double LatencyHistogram::bucket_lower_ms(int i) {
  if (i <= 0) return 0.0;
  return kGeometry.lower_edge(static_cast<std::size_t>(i));
}

double LatencyHistogram::bucket_upper_ms(int i) {
  if (i >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return bucket_lower_ms(i + 1);
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

}  // namespace dohperf::obs
