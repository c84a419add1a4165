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
// event queue, replicated server stack (world::SimContext), and slab
// arena for coroutine frames (netsim::Arena). Every session draws its
// randomness from a private substream keyed by a stable identifier
// ("shard-exit-<id>-run-<n>" / "shard-atlas-<iso2>-<i>"), never by shard
// index or scheduling order, and the per-shard results are merged in
// canonical order — so the output is bit-identical for every thread
// count, including the serial reference path.
//
// Two sink modes share the execution engine:
//   * run() / run_serial()            -> retained-rows Dataset (paper-
//     scale analyses; every record resident).
//   * run_streaming() / *_serial()    -> StreamSink (million-session
//     scale; rows folded into sketches/bitsets/counters as sessions
//     complete, O(world) memory instead of O(sessions)).
#pragma once

#include <cstdint>
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
  /// One entry per shard (the serial reference path reports one).
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

/// Runs the campaign over an assembled world.
class Campaign {
 public:
  explicit Campaign(world::WorldModel& world, CampaignConfig config = {});

  /// Executes every session, sharded across worker threads (see
  /// CampaignConfig::threads), and returns the merged dataset.
  [[nodiscard]] Dataset run();

  /// Reference path: every session on the world's own simulator and
  /// server stack, no replicas, no threads. run() at any thread count is
  /// bit-identical to this.
  [[nodiscard]] Dataset run_serial();

  /// Streaming-sink mode: rows are folded into the per-shard sinks as
  /// sessions complete and never accumulate. Memory stays O(world);
  /// aggregate results are bit-identical for every thread count.
  [[nodiscard]] StreamSink run_streaming();

  /// Serial reference path for the streaming sink.
  [[nodiscard]] StreamSink run_streaming_serial();

  /// Counters of the most recent run.
  [[nodiscard]] const CampaignStats& stats() const { return stats_; }

  /// Observability metrics of the most recent run: wire/query/handshake
  /// counters plus per-provider resolution-latency histograms. Shards
  /// record into private registries that are merged in canonical shard
  /// order; integer-only arithmetic makes the result bit-identical for
  /// every thread count (see DESIGN.md "Observability").
  [[nodiscard]] const obs::Metrics& metrics() const {
    return telemetry_.metrics;
  }

  /// Sim-time metric series of the most recent run: per-window counters
  /// and latency histograms under provider x country labels, recorded by
  /// each shard into a private series and merged in canonical shard
  /// order. Same bit-identity contract as metrics().
  [[nodiscard]] const obs::MetricSeries& series() const {
    return telemetry_.series;
  }

  /// Anomaly flight recorder of the most recent run: merged, finalized,
  /// holding the canonical-latest retained anomalies and the examination
  /// counts. Same bit-identity contract as metrics().
  [[nodiscard]] const obs::FlightRecorder& anomalies() const {
    return telemetry_.anomalies;
  }

  /// SLO outcome tracker of the most recent run: per-(provider, country)
  /// outcome counts in campaign-time windows, classified once at each
  /// flow's exit path. Same bit-identity contract as metrics().
  [[nodiscard]] const obs::SloTracker& slo() const { return telemetry_.slo; }

  /// Phase-exact latency attribution ledger of the most recent run:
  /// per-(provider, country, transport) integer microsecond sums and
  /// sketches whose phases partition each flow's end-to-end latency
  /// exactly. Same bit-identity contract as metrics().
  [[nodiscard]] const obs::AttributionLedger& attribution() const {
    return telemetry_.attribution;
  }

  /// Hands the most recent run's telemetry to the caller by move; the
  /// accessors above read empty sinks until the next run.
  [[nodiscard]] CampaignTelemetry take_telemetry();

  /// DOHPERF_THREADS from the environment, falling back to
  /// std::thread::hardware_concurrency() (minimum 1).
  [[nodiscard]] static int threads_from_env();

 private:
  /// `shards` == 0 selects the serial reference path.
  Dataset run_impl(int shards);
  StreamSink run_streaming_impl(int shards);

  world::WorldModel& world_;
  CampaignConfig config_;
  CampaignStats stats_;
  CampaignTelemetry telemetry_;
};

}  // namespace dohperf::measure
