// The full measurement campaign (paper Sections 3 and 5.1).
//
// For every reachable exit node: cross-check BrightData's country label
// against the Maxmind-like geolocation service (discarding mismatches),
// then run `runs_per_client` sessions of 5 measurements each — one DoH
// resolution per studied provider plus one Do53 resolution via the
// client's default resolver. Do53 in the 11 Super Proxy countries is
// collected from the RIPE Atlas-like network instead (Section 3.5).
//
// Execution is sharded: the retained exit nodes (and the Atlas countries)
// are partitioned across worker threads, each with its own simulator,
// event queue and servers (a world::SimContext replica of the world's),
// and slab arena for coroutine frames (netsim::Arena). Every session
// draws its randomness from a private substream keyed by a stable
// identifier ("shard-exit-<id>-run-<n>" / "shard-atlas-<iso2>-<i>"),
// never by shard index or scheduling order, and the per-shard results
// are merged in canonical order — so the output is bit-identical for
// every shard count. No campaign runs on the world's own servers.
//
// One engine serves both sink modes, with one entry point per sink:
//   * run()           -> retained-rows Dataset (paper-scale analyses;
//     every record resident).
//   * run_streaming() -> StreamSink (million-session scale; rows folded
//     into sketches/bitsets/counters as sessions complete, O(world)
//     memory instead of O(sessions)).
// Both take a shard count; 0 runs as 1.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "measure/dataset.h"
#include "measure/stream_sink.h"
#include "measure/warm.h"
#include "netsim/arena.h"
#include "netsim/faultplan.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "world/world_model.h"

namespace dohperf::measure {

/// Campaign knobs.
struct CampaignConfig {
  int runs_per_client = 2;
  /// Per-(client, provider) probability that a DoH measurement fails
  /// (unreachable resolver, dropped tunnel, ...). This is why Table 3's
  /// per-provider client counts fall slightly below the Do53 total.
  double provider_failure_rate = 0.006;
  /// Atlas Do53 sample size per Super Proxy country (paper: >= 250 in
  /// the validation experiments).
  int atlas_measurements_per_country = 250;
  /// Measurement flows launched concurrently per simulator batch.
  std::size_t batch_size = 256;
  /// Worker shards executing the campaign concurrently. 0 = take
  /// DOHPERF_THREADS from the environment, falling back to the hardware
  /// concurrency. The dataset is bit-identical for every value.
  int threads = 0;
  /// Episodic fault injection (loss spikes, blackouts, brownouts,
  /// provider outages). Disabled by default; every probability is zero,
  /// in which case no fault plan is sampled and no session draws change,
  /// so datasets stay bit-identical to a fault-free build. Plans are
  /// sampled per session from the session's private RNG substream and
  /// windows are expressed relative to the session's own start, so the
  /// result is still bit-identical for every thread count.
  netsim::FaultPlanConfig faults;
  /// Width of the sim-time metric-series windows. Windows are indexed
  /// relative to each session's own start (the fault plans' time base),
  /// so the merged series is bit-identical for every thread count.
  netsim::Duration series_window = netsim::from_ms(250.0);
  /// Anomaly flight-recorder policy. Enabled by default: every flow's
  /// span tree is built and examined, and only anomalous trees are
  /// retained (see obs/flight_recorder.h for the predicate).
  obs::AnomalyPolicy anomalies;
  /// Streaming-sink tuning (run_streaming() only).
  StreamSinkConfig stream;
  /// Virtual campaign-time spacing between session slots. Each session's
  /// SLO window offset is slot * session_spacing plus its own sim time —
  /// a pure function of the slot, so the multi-day campaign axis exists
  /// without moving any shard's clock and without perturbing a single
  /// RNG draw (zero spacing, the default, collapses the axis). The
  /// recurring fault schedules in `faults` are windowed on this axis too.
  netsim::Duration session_spacing{};
  /// SLO objectives and burn-rate window geometry. Outcome recording is
  /// always on (it is integer bookkeeping); `slo.enabled` gates alert
  /// evaluation and report outputs.
  obs::SloConfig slo;
  /// Shared PoP cache model ([cache]). Disabled by default: no model is
  /// built, no warm block runs, no session draw changes — datasets stay
  /// bit-identical to builds without the feature.
  resolver::SharedCacheConfig cache;
  /// Connection-reuse / warm-path knobs ([reuse]). Enabling either this
  /// or `cache` appends one warm DoH session per surviving provider and
  /// one warm Do53 session to every measurement session; their latencies
  /// land in per-query-index histograms and the *_warm series, never in
  /// the cold dataset rows (fig4/fig5 are untouched by construction).
  ReuseConfig reuse;
};

/// Per-shard self-profiling of one run: how the wall-clock work and the
/// event-queue pressure spread across workers (shard load imbalance is
/// invisible in the merged totals).
struct ShardProfile {
  int shard = 0;
  std::uint64_t sessions = 0;  ///< Sessions this shard executed.
  std::uint64_t events = 0;    ///< Simulator events this shard processed.
  double wall_seconds = 0.0;
  std::size_t queue_high_water = 0;  ///< Deepest event queue observed.
  /// Coroutine-frame arena counters for this shard (high-water, slab
  /// bytes, free-list reuse); see netsim/arena.h.
  netsim::ArenaStats arena;

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

/// Execution counters of the last Campaign run (used by the benches to
/// track the sharding speedup).
struct CampaignStats {
  int shards = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  /// One entry per shard.
  std::vector<ShardProfile> shard_profiles;
};

/// Everything the observability sinks record during one run. Each shard
/// records into a private instance; after the join the campaign merges
/// them in canonical shard order.
struct CampaignTelemetry {
  obs::Metrics metrics;
  obs::MetricSeries series;
  obs::FlightRecorder anomalies;
  obs::SloTracker slo;
  obs::AttributionLedger attribution;
};

/// The count rule, shared by every count read from text (environment
/// variables, flags, list entries): true when `text` reads as an int by
/// the number rule (report::read_number) and the value is > 0 ("4", not
/// "4x", "-1", "0", "+4" or ""); the value is then stored in `*count`.
[[nodiscard]] bool parse_count(std::string_view text, int* count);

/// Reads a count (DOHPERF_THREADS, DOHPERF_SWEEP_PROCS) from environment
/// variable `variable` into `*count`: 0 when the variable is unset, else
/// the value must follow parse_count's rule. On a malformed value returns
/// false and stores one diagnostic naming the variable in `*error`.
[[nodiscard]] bool count_from_env(const char* variable, int* count,
                                  std::string* error);

/// Runs the campaign over an assembled world.
class Campaign {
 public:
  /// Shard count that defers to CampaignConfig::threads, then
  /// DOHPERF_THREADS, then the hardware concurrency. A malformed
  /// DOHPERF_THREADS makes the run throw std::invalid_argument.
  static constexpr int kConfiguredShards = -1;

  explicit Campaign(world::WorldModel& world, CampaignConfig config = {});

  /// Executes every session across `shards` worker threads, each on its
  /// own replica of the world's servers, and returns the merged dataset.
  /// 0 shards runs as 1. Every shard count is bit-identical.
  [[nodiscard]] Dataset run(int shards = kConfiguredShards);

  /// Streaming-sink mode of run(): rows are folded into the per-shard
  /// sinks as sessions complete and never accumulate. Memory stays
  /// O(world); aggregate results are bit-identical for every shard count.
  [[nodiscard]] StreamSink run_streaming(int shards = kConfiguredShards);

  /// Counters of the most recent run.
  [[nodiscard]] const CampaignStats& stats() const { return stats_; }

  /// Observability sinks of the most recent run: metrics, sim-time
  /// series, the finalized anomaly flight recorder, SLO outcomes and the
  /// attribution ledger. Shards record into private sinks that are merged
  /// in canonical shard order; integer-only arithmetic makes every sink
  /// bit-identical for every shard count (see DESIGN.md "Observability").
  [[nodiscard]] const CampaignTelemetry& telemetry() const {
    return telemetry_;
  }

  /// Hands the most recent run's telemetry to the caller by move;
  /// telemetry() reads empty sinks until the next run.
  [[nodiscard]] CampaignTelemetry take_telemetry();

 private:
  /// The one engine behind both sinks: builds the plan and the root RNG,
  /// executes every session into `dataset` (retained rows) or `stream`
  /// (exactly one is non-null), and fills stats().
  void execute(int shards, Dataset* dataset, StreamSink* stream);

  world::WorldModel& world_;
  CampaignConfig config_;
  CampaignStats stats_;
  CampaignTelemetry telemetry_;
};

}  // namespace dohperf::measure
