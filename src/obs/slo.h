// SLO tracking: rolling availability, error budgets, burn-rate alerts.
//
// An SloTracker buckets session Outcomes into fixed campaign-time windows
// per (provider, country) plus a per-provider aggregate, then evaluates
// Google-SRE-style multi-window multi-burn-rate alerts against a declared
// availability objective. Everything recorded is an integer count filed by
// (provider, country, window index), so per-shard trackers merge by plain
// addition, matched by name, and every derived ratio is computed *after*
// the merge from identical integers — the whole pipeline is bit-identical
// at any shard count, which determinism_test enforces.
//
// "Campaign time" is the caller's business: the campaign maps each session
// slot onto a virtual offset (slot × session_spacing + intra-session sim
// time), a pure function of the slot, so window indices never depend on
// which shard ran the session.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/time.h"
#include "obs/outcome.h"
#include "obs/tracks.h"

namespace dohperf::obs {

/// Declared objectives and the window geometry used to judge them.
/// Defaults follow the SRE workbook: page on the fast 5m/1h pair at
/// 14.4x burn (2% of a 30-day budget in an hour), ticket on the slow
/// 6h/3d pair at 6x.
struct SloConfig {
  bool enabled = false;  ///< Gates alerts/outputs; recording is always on.
  /// Base rollup window; burn windows are rounded up to multiples of it.
  netsim::Duration window = netsim::from_ms(60'000.0);
  double availability_objective = 0.999;
  /// Latency objective: samples slower than this burn the 1% latency
  /// budget. 0 disables the latency SLO.
  double p99_objective_ms = 0.0;
  netsim::Duration fast_short = netsim::from_ms(5 * 60'000.0);
  netsim::Duration fast_long = netsim::from_ms(60 * 60'000.0);
  double fast_burn = 14.4;
  netsim::Duration slow_short = netsim::from_ms(6 * 3'600'000.0);
  netsim::Duration slow_long = netsim::from_ms(72 * 3'600'000.0);
  double slow_burn = 6.0;
};

/// One window's worth of integer counts for one key.
struct SloCell {
  std::array<std::uint64_t, kOutcomeCount> outcomes{};
  std::uint64_t slow = 0;  ///< Latency samples above the p99 objective.

  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t good() const;
  [[nodiscard]] std::uint64_t errors() const { return total() - good(); }
  void merge(const SloCell& other);
  friend bool operator==(const SloCell&, const SloCell&) = default;
};

/// An edge-triggered burn-rate alert event: emitted at the close of the
/// first base window where both the short and long trailing burn rates
/// exceed the pair's threshold, and re-armed once the condition clears.
struct SloAlert {
  std::string provider;
  std::string severity;  ///< "page" (fast pair) or "ticket" (slow pair).
  std::int64_t window_start_ms = 0;  ///< Campaign-time start of the window
                                     ///< whose close fired the alert.
  double burn_short = 0.0;
  double burn_long = 0.0;
  friend bool operator==(const SloAlert&, const SloAlert&) = default;
};

/// Whole-campaign budget position for one (provider, country) key. An
/// empty country is the per-provider aggregate.
struct SloBudget {
  std::string provider;
  std::string country;
  std::uint64_t total = 0;
  std::uint64_t errors = 0;
  std::uint64_t slow = 0;
  double availability = 1.0;
  /// errors / (total * (1 - objective)); 1.0 = budget exactly spent.
  double error_budget_consumed = 0.0;
  /// slow / (total * 0.01); only meaningful when p99_objective_ms > 0.
  double latency_budget_consumed = 0.0;
};

class SloTracker {
 public:
  SloTracker() = default;
  explicit SloTracker(SloConfig config) : config_(config) {}

  /// Records one completed flow. Offsets before the epoch clamp into
  /// window 0 (mirrors MetricSeries). When `country` is non-empty the
  /// outcome is recorded twice: under (provider, country) and under the
  /// (provider, "") aggregate.
  void record(std::string_view provider, std::string_view country,
              netsim::Duration campaign_offset, Outcome outcome,
              double latency_ms = 0.0, bool has_latency = false);

  /// Adds another tracker's counts (canonical: plain integer sums keyed
  /// by (key, window); merge order cannot matter).
  void merge(const SloTracker& other);

  /// Walks every base window of each provider aggregate and emits
  /// edge-triggered burn-rate alerts, fast pair then slow pair per
  /// window. Deterministic given the merged counts.
  [[nodiscard]] std::vector<SloAlert> evaluate() const;

  /// Whole-campaign budget accounting for every key (aggregates
  /// included), in the byte-wise order of (provider, country).
  [[nodiscard]] std::vector<SloBudget> budgets() const;

  /// (provider, country) -> window index -> counts. Sparse; absent
  /// windows are zero.
  using Cells = LabeledTracks<2, WindowCells<SloCell>>;

  [[nodiscard]] const SloConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t window_ms() const;
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const Cells& cells() const { return cells_; }

  /// Equal counts under equal names; the configs are not compared.
  friend bool operator==(const SloTracker& a, const SloTracker& b) {
    return a.cells_ == b.cells_;
  }

 private:
  [[nodiscard]] std::int64_t window_index(netsim::Duration offset) const;

  SloConfig config_{};
  Cells cells_;
};

}  // namespace dohperf::obs
