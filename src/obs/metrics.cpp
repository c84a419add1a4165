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
  counters.messages += other.counters.messages;
  counters.bytes_on_wire += other.counters.bytes_on_wire;
  counters.dns_queries += other.counters.dns_queries;
  counters.doh_queries += other.counters.doh_queries;
  counters.do53_queries += other.counters.do53_queries;
  counters.tcp_handshakes += other.counters.tcp_handshakes;
  counters.tls_handshakes += other.counters.tls_handshakes;
  counters.quic_handshakes += other.counters.quic_handshakes;
  counters.tunnels_established += other.counters.tunnels_established;
  counters.loss_retries += other.counters.loss_retries;
  counters.handshake_retries += other.counters.handshake_retries;
  counters.retry_timeouts += other.counters.retry_timeouts;
  counters.fallbacks += other.counters.fallbacks;
  counters.fallback_ok += other.counters.fallback_ok;
  counters.fallback_failed += other.counters.fallback_failed;
  counters.brownout_delays += other.counters.brownout_delays;
  counters.failures += other.counters.failures;
  counters.tls_resumptions += other.counters.tls_resumptions;
  counters.pool_cold += other.counters.pool_cold;
  counters.pool_reuses += other.counters.pool_reuses;
  counters.pool_resumptions += other.counters.pool_resumptions;
  counters.pool_evictions += other.counters.pool_evictions;
  counters.shared_cache_hits += other.counters.shared_cache_hits;
  counters.shared_cache_misses += other.counters.shared_cache_misses;
  counters.stub_cache_hits += other.counters.stub_cache_hits;
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void Metrics::clear() {
  counters = MetricCounters{};
  histograms_.clear();
}

}  // namespace dohperf::obs
