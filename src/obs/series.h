// Sim-time metric series: fixed-width epoch windows of counters and
// latency histograms, keyed by (metric, provider, country).
//
// A series answers "when inside a session did latency degrade, retries
// spike, or faults bite?" — the longitudinal view the campaign-end
// aggregates in obs::Metrics cannot give. Windows are indexed by time
// since a recording *epoch* (the owner anchors it at the session start,
// exactly like netsim::FaultPlan windows), so a sample's window index is
// a pure function of the session's own timeline, never of the shard's
// absolute clock. Combined with integer-only cells (counts and histogram
// buckets) and a canonical-order merge, the merged series is
// bit-identical for every DOHPERF_THREADS value — the same contract the
// dataset and the metrics registry carry.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "netsim/time.h"
#include "obs/metrics.h"

namespace dohperf::obs {

/// Dimensional label set of one track. Empty strings mean "dimension not
/// applicable": counter events recorded below the measurement layer
/// (retries, backoff) carry whatever labels the current measurement set,
/// and latency tracks are additionally recorded with country == "" as the
/// all-countries per-provider aggregate.
struct SeriesKey {
  std::string metric;
  std::string provider;
  std::string country;

  friend auto operator<=>(const SeriesKey&, const SeriesKey&) = default;
};

class MetricSeries {
 public:
  /// Sparse window index -> value maps. Indices are epoch-relative
  /// window ordinals (offset / window width, integer division).
  using CounterTrack = std::map<std::int64_t, std::uint64_t>;
  using LatencyTrack = std::map<std::int64_t, LatencyHistogram>;

  explicit MetricSeries(netsim::Duration window = netsim::from_ms(250.0))
      : window_(window.count() > 0 ? window : netsim::from_ms(250.0)) {}

  [[nodiscard]] netsim::Duration window() const { return window_; }

  /// Window ordinal for an epoch-relative offset (negative offsets clamp
  /// to window 0 so a stray pre-epoch sample cannot create index -1).
  [[nodiscard]] std::int64_t window_index(netsim::Duration offset) const {
    if (offset.count() <= 0) return 0;
    return offset.count() / window_.count();
  }

  /// Inclusive lower edge of window `i` in epoch-relative ms.
  [[nodiscard]] double window_start_ms(std::int64_t i) const {
    return netsim::to_ms(window_) * static_cast<double>(i);
  }

  void add_count(const SeriesKey& key, netsim::Duration offset,
                 std::uint64_t n = 1) {
    counters_[key][window_index(offset)] += n;
  }

  /// Hard ceiling on the windows one add_count_range call can touch. An
  /// episode with an unbounded end (provider outages use
  /// Duration::max()) must not turn occupancy recording into an
  /// effectively infinite loop; callers clamp to their own horizon
  /// first, this is the deterministic backstop.
  static constexpr std::int64_t kMaxRangeWindows = 1 << 16;

  /// Bumps `key` by `n` in every window overlapped by [from, to).
  void add_count_range(const SeriesKey& key, netsim::Duration from,
                       netsim::Duration to, std::uint64_t n = 1) {
    if (to <= from) return;
    CounterTrack& track = counters_[key];
    const std::int64_t first = window_index(from);
    std::int64_t last = window_index(to - netsim::Duration{1});
    if (last - first >= kMaxRangeWindows) {
      last = first + kMaxRangeWindows - 1;
    }
    for (std::int64_t i = first; i <= last; ++i) track[i] += n;
  }

  void record_latency(const SeriesKey& key, netsim::Duration offset,
                      double ms) {
    latencies_[key][window_index(offset)].record(ms);
  }

  [[nodiscard]] const std::map<SeriesKey, CounterTrack>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<SeriesKey, LatencyTrack>& latencies() const {
    return latencies_;
  }
  [[nodiscard]] bool empty() const {
    return counters_.empty() && latencies_.empty();
  }

  /// Sums `other` into this series (integer adds on identical window
  /// grids: order-independent). Window widths must match; the campaign
  /// constructs every shard's series from the same config.
  void merge(const MetricSeries& other);

  friend bool operator==(const MetricSeries& a, const MetricSeries& b) {
    return a.window_ == b.window_ && a.counters_ == b.counters_ &&
           a.latencies_ == b.latencies_;
  }

 private:
  netsim::Duration window_;
  std::map<SeriesKey, CounterTrack> counters_;
  std::map<SeriesKey, LatencyTrack> latencies_;
};

/// The (provider, country) a measurement is filed under, in the series
/// tracks and the attribution ledger alike. Non-owning: the owner points
/// it at strings that outlive the measurement.
struct Labels {
  std::string_view provider;
  std::string_view country;
};

/// Null-safe recording handle threaded through NetCtx: carries the
/// series and the epoch every offset is measured from. Layers below the
/// measurement (retry machines, brownout inflation) record through it
/// under whatever labels the measurement in flight set.
struct SeriesRecorder {
  MetricSeries* series = nullptr;
  netsim::SimTime epoch{};

  [[nodiscard]] bool attached() const { return series != nullptr; }

  void count(std::string_view metric, const Labels& labels,
             netsim::SimTime at, std::uint64_t n = 1) const {
    if (series == nullptr) return;
    series->add_count(key(metric, labels), at - epoch, n);
  }

  /// Records into the dimensional (provider, country) track and into the
  /// per-provider all-countries aggregate (country == "").
  void latency(std::string_view metric, const Labels& labels,
               netsim::SimTime at, double ms) const {
    if (series == nullptr) return;
    SeriesKey track = key(metric, labels);
    series->record_latency(track, at - epoch, ms);
    if (!track.country.empty()) {
      track.country.clear();
      series->record_latency(track, at - epoch, ms);
    }
  }

 private:
  static SeriesKey key(std::string_view metric, const Labels& labels) {
    return {std::string(metric), std::string(labels.provider),
            std::string(labels.country)};
  }
};

}  // namespace dohperf::obs
