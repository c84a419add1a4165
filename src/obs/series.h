// Sim-time metric series: fixed-width epoch windows of counters and
// latency histograms, in tracks named by (metric, provider, country).
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

#include <cstdint>
#include <ranges>
#include <string_view>
#include <utility>

#include "netsim/time.h"
#include "obs/metrics.h"
#include "obs/tracks.h"

namespace dohperf::obs {

/// The labels of one series track: (metric, provider, country). Empty
/// strings mean "dimension not applicable": counter events recorded
/// below the measurement layer (retries, backoff) carry whatever labels
/// the current measurement set, and latency tracks are additionally
/// recorded with country == "" as the all-countries per-provider
/// aggregate.
using SeriesNames = LabelNames<3>;

class MetricSeries {
 public:
  /// Sparse window index -> value cells. Indices are epoch-relative
  /// window ordinals (offset / window width, integer division).
  using CounterTrack = WindowCells<std::uint64_t>;
  using LatencyTrack = WindowCells<LatencyHistogram>;
  using Counters = LabeledTracks<3, CounterTrack>;
  using Latencies = LabeledTracks<3, LatencyTrack>;

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

  void add_count(const SeriesNames& names, netsim::Duration offset,
                 std::uint64_t n = 1) {
    counters_[names][window_index(offset)] += n;
  }

  /// Hard ceiling on the windows one add_count_range call can touch. An
  /// episode with an unbounded end (provider outages use
  /// Duration::max()) must not turn occupancy recording into an
  /// effectively infinite loop; callers clamp to their own horizon
  /// first, this is the deterministic backstop.
  static constexpr std::int64_t kMaxRangeWindows = 1 << 16;

  /// Bumps track `names` by `n` in every window overlapped by [from, to).
  void add_count_range(const SeriesNames& names, netsim::Duration from,
                       netsim::Duration to, std::uint64_t n = 1) {
    if (to <= from) return;
    const std::int64_t first = window_index(from);
    std::int64_t last = window_index(to - netsim::Duration{1});
    if (last - first >= kMaxRangeWindows) {
      last = first + kMaxRangeWindows - 1;
    }
    const auto bumps =
        std::views::iota(first, last + 1) |
        std::views::transform([n](std::int64_t w) { return std::pair(w, n); });
    counters_[names].merge(
        bumps, [](std::uint64_t& count, std::uint64_t add) { count += add; });
  }

  void record_latency(const SeriesNames& names, netsim::Duration offset,
                      double ms) {
    latencies_[names][window_index(offset)].record(ms);
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const Latencies& latencies() const { return latencies_; }
  [[nodiscard]] bool empty() const {
    return counters_.empty() && latencies_.empty();
  }

  /// Sums `other` into this series (integer adds on identical window
  /// grids: order-independent). Window widths must match; the campaign
  /// constructs every shard's series from the same config.
  void merge(const MetricSeries& other);

  friend bool operator==(const MetricSeries&, const MetricSeries&) = default;

 private:
  netsim::Duration window_;
  Counters counters_;
  Latencies latencies_;
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
    series->add_count({metric, labels.provider, labels.country}, at - epoch,
                      n);
  }

  /// Records into the dimensional (provider, country) track and into the
  /// per-provider all-countries aggregate (country == "").
  void latency(std::string_view metric, const Labels& labels,
               netsim::SimTime at, double ms) const {
    if (series == nullptr) return;
    series->record_latency({metric, labels.provider, labels.country},
                           at - epoch, ms);
    if (!labels.country.empty()) {
      series->record_latency({metric, labels.provider, {}}, at - epoch, ms);
    }
  }
};

}  // namespace dohperf::obs
