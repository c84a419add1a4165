// Sharded execution metrics.
//
// Each campaign shard owns a private Metrics instance — shard ownership,
// not locks, is what makes the counters contention-free — and the owners
// merge them in canonical shard order at join. Everything inside is an
// integer (plain counters and fixed-bucket histogram counts), so the
// merge is a commutative sum and the merged registry is bit-identical
// for every shard count, the same guarantee the dataset itself carries.
// Double-valued aggregates (means, sums of ms) are deliberately absent:
// floating-point addition is not associative, and a partition-dependent
// rounding difference would break the DOHPERF_THREADS=1/2/4 identity.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "obs/sparse_buckets.h"
#include "obs/tracks.h"

namespace dohperf::obs {

/// Fixed-bucket latency histogram: bucket 0 is [0, 1 ms), buckets 1..N
/// are quarter-octave (x2^(1/4)) widths from 1 ms, and the last bucket
/// absorbs everything past ~4 s. Fixed edges (no rebalancing) keep
/// bucket assignment a pure function of the recorded value, so shard
/// merges are order-independent. Only non-zero buckets are stored
/// (obs::SparseBuckets): an empty histogram is 24 bytes and owns no heap,
/// and each recorded bucket costs one 16-byte cell.
class LatencyHistogram {
 public:
  /// Quarter-octave buckets spanning 1 ms .. 2^12 ms = 4096 ms.
  static constexpr int kLogBuckets = 48;
  /// +1 underflow bucket [0, 1 ms), +1 overflow bucket [4096 ms, inf).
  static constexpr int kBucketCount = kLogBuckets + 2;
  static_assert(kBucketCount <= SparseBuckets::kMaxBuckets);
  static constexpr LogBuckets kGeometry{4, 1.0, kLogBuckets};

  /// Bucket index for a latency (negative values land in bucket 0).
  [[nodiscard]] static int bucket_index(double ms);
  /// Inclusive lower edge of bucket `i` in ms (bucket 0 starts at 0).
  [[nodiscard]] static double bucket_lower_ms(int i);
  /// Exclusive upper edge of bucket `i` in ms (last bucket: +inf).
  [[nodiscard]] static double bucket_upper_ms(int i);

  void record(double ms) {
    buckets_.add(static_cast<std::size_t>(bucket_index(ms)));
  }
  void merge(const LatencyHistogram& other) { buckets_.merge(other.buckets_); }

  [[nodiscard]] std::uint64_t count() const { return buckets_.total(); }
  [[nodiscard]] std::uint64_t bucket_count(int i) const {
    return i < 0 ? 0 : buckets_.count(static_cast<std::size_t>(i));
  }
  /// The non-zero buckets in ascending bucket order.
  [[nodiscard]] std::span<const SparseBuckets::Cell> buckets() const {
    return buckets_.cells();
  }

  /// Deterministic quantile estimate: the upper edge of the first bucket
  /// whose cumulative count reaches q * total (0 on an empty histogram).
  [[nodiscard]] double quantile_ms(double q) const;

  /// The quantile_ms() of each of `qs` (ascending), in one pass over the
  /// buckets, as edge indices: quantile_ms(qs[i]) ==
  /// bucket_lower_ms(edges[i]). The last bucket reports its lower edge
  /// and an empty histogram edge 0, so every quantile is one of the
  /// kBucketCount lower edges.
  void quantile_edges(std::span<const double> qs, std::span<int> edges) const;

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  SparseBuckets buckets_;
};

/// Plain event counters, incremented from the instrumented layers.
struct MetricCounters {
  std::uint64_t messages = 0;        ///< Simulated wire messages (hops).
  std::uint64_t bytes_on_wire = 0;   ///< Total bytes across all hops.
  std::uint64_t dns_queries = 0;     ///< Stub resolutions issued.
  std::uint64_t doh_queries = 0;     ///< DoH measurement flows started.
  std::uint64_t do53_queries = 0;    ///< Do53 measurement flows started.
  std::uint64_t tcp_handshakes = 0;
  std::uint64_t tls_handshakes = 0;
  std::uint64_t quic_handshakes = 0;
  std::uint64_t tunnels_established = 0;
  std::uint64_t loss_retries = 0;    ///< Datagram retransmits (data path).
  std::uint64_t handshake_retries = 0;  ///< SYN/Initial/Hello retransmits.
  std::uint64_t retry_timeouts = 0;  ///< Exchanges that gave up entirely.
  std::uint64_t fallbacks = 0;       ///< Policy downgrades DoH -> Do53.
  std::uint64_t fallback_ok = 0;     ///< Downgrades whose Do53 leg resolved.
  std::uint64_t fallback_failed = 0;  ///< Downgrades that failed anyway.
  std::uint64_t brownout_delays = 0;  ///< Server steps inflated by brownout.
  std::uint64_t failures = 0;        ///< Failed measurements.
  std::uint64_t tls_resumptions = 0;  ///< Session-ticket 1-RTT handshakes.
  std::uint64_t pool_cold = 0;       ///< Pool acquisitions: full handshake.
  std::uint64_t pool_reuses = 0;     ///< Pool acquisitions: live keep-alive.
  std::uint64_t pool_resumptions = 0;  ///< Pool acquisitions: via ticket.
  std::uint64_t pool_evictions = 0;  ///< LRU evictions at pool capacity.
  std::uint64_t shared_cache_hits = 0;    ///< Warm-path PoP cache hits.
  std::uint64_t shared_cache_misses = 0;  ///< Warm-path PoP cache misses.
  std::uint64_t stub_cache_hits = 0;  ///< Warm-path client-local hits.

  friend bool operator==(const MetricCounters&,
                         const MetricCounters&) = default;
};

/// One MetricCounters field (or nullptr for none).
using Counter = std::uint64_t MetricCounters::*;

/// Every MetricCounters field as {export name, member}, in export order:
/// the one list that Metrics::merge and report::metrics_csv both walk.
inline constexpr std::pair<std::string_view, Counter> kCounterFields[] = {
    {"messages", &MetricCounters::messages},
    {"bytes_on_wire", &MetricCounters::bytes_on_wire},
    {"dns_queries", &MetricCounters::dns_queries},
    {"doh_queries", &MetricCounters::doh_queries},
    {"do53_queries", &MetricCounters::do53_queries},
    {"tcp_handshakes", &MetricCounters::tcp_handshakes},
    {"tls_handshakes", &MetricCounters::tls_handshakes},
    {"quic_handshakes", &MetricCounters::quic_handshakes},
    {"tunnels_established", &MetricCounters::tunnels_established},
    {"loss_retries", &MetricCounters::loss_retries},
    {"handshake_retries", &MetricCounters::handshake_retries},
    {"retry_timeouts", &MetricCounters::retry_timeouts},
    {"fallbacks", &MetricCounters::fallbacks},
    {"fallback_ok", &MetricCounters::fallback_ok},
    {"fallback_failed", &MetricCounters::fallback_failed},
    {"brownout_delays", &MetricCounters::brownout_delays},
    {"failures", &MetricCounters::failures},
    {"tls_resumptions", &MetricCounters::tls_resumptions},
    {"pool_cold", &MetricCounters::pool_cold},
    {"pool_reuses", &MetricCounters::pool_reuses},
    {"pool_resumptions", &MetricCounters::pool_resumptions},
    {"pool_evictions", &MetricCounters::pool_evictions},
    {"shared_cache_hits", &MetricCounters::shared_cache_hits},
    {"shared_cache_misses", &MetricCounters::shared_cache_misses},
    {"stub_cache_hits", &MetricCounters::stub_cache_hits},
};

/// True when kCounterFields names every MetricCounters field exactly once
/// (every field is a uint64_t, so the struct reads back as an array).
consteval bool counter_fields_complete() {
  MetricCounters hits;
  for (const auto& [name, member] : kCounterFields) ++(hits.*member);
  constexpr std::size_t kFields =
      sizeof(MetricCounters) / sizeof(std::uint64_t);
  for (const std::uint64_t n :
       std::bit_cast<std::array<std::uint64_t, kFields>>(hits)) {
    if (n != 1) return false;
  }
  return true;
}
static_assert(counter_fields_complete(),
              "kCounterFields must list every MetricCounters field once");

/// One shard's metrics registry: counters plus named latency histograms
/// (per-provider resolution times). Single-owner by construction — the
/// shard that increments is the only writer until the merge.
class Metrics {
 public:
  /// The named histograms, one track per name.
  using Histograms = LabeledTracks<1, LatencyHistogram>;

  MetricCounters counters;

  /// Histogram for `name`, created on first use.
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name) {
    return histograms_[{name}];
  }
  /// Histogram for `name`, or nullptr when never recorded.
  [[nodiscard]] const LatencyHistogram* find_histogram(
      std::string_view name) const {
    return histograms_.find({name});
  }
  [[nodiscard]] const Histograms& histograms() const { return histograms_; }

  /// Sums `other` into this registry (integer adds: order-independent).
  void merge(const Metrics& other);

  friend bool operator==(const Metrics&, const Metrics&) = default;

 private:
  Histograms histograms_;
};

}  // namespace dohperf::obs
