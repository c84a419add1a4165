#include "obs/metrics.h"

#include <algorithm>
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
  int edge = 0;
  quantile_edges({&q, 1}, {&edge, 1});
  return bucket_lower_ms(edge);
}

void LatencyHistogram::quantile_edges(std::span<const double> qs,
                                      std::span<int> edges) const {
  const std::uint64_t total = count();
  std::size_t k = 0;
  if (total == 0) {
    for (; k < qs.size(); ++k) edges[k] = 0;
    return;
  }
  // Rank as an integer ceiling so the answer never depends on
  // floating-point accumulation order.
  const auto target = [total](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total)));
    return rank == 0 ? std::uint64_t{1} : rank;
  };
  std::uint64_t cumulative = 0;
  for (const SparseBuckets::Cell& cell : buckets_.cells()) {
    cumulative += cell.count;
    // The last bucket's upper edge is infinite; report its lower edge.
    const int edge = std::min<int>(cell.bucket + 1, kBucketCount - 1);
    for (; k < qs.size() && cumulative >= target(qs[k]); ++k) {
      edges[k] = edge;
    }
  }
  for (; k < qs.size(); ++k) edges[k] = kBucketCount - 1;
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, member] : kCounterFields) {
    counters.*member += other.counters.*member;
  }
  histograms_.merge(other.histograms_,
                    [](LatencyHistogram& mine, const LatencyHistogram& theirs) {
                      mine.merge(theirs);
                    });
}

}  // namespace dohperf::obs
