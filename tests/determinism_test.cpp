// Sharding determinism regression tests.
//
// The campaign's contract: the merged dataset is BIT-identical for every
// shard count. Every shard runs on its own replica of the world's servers
// (world::WorldModel::make_replica), and Campaign::run with 0 shards runs
// as one shard; the "serial" golden runs below are those 0-shard runs.
// Every field is compared exactly — doubles included — because sharding
// must not perturb a single bit of output. A small world
// (client_scale = 0.05) keeps each campaign around a second; each run
// builds a fresh world from the same seed.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "measure/campaign.h"
#include "measure/dataset.h"
#include "measure/stream_sink.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "report/attribution.h"
#include "report/slo.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "stats/summary.h"
#include "world/world_model.h"

namespace dohperf::measure {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 99;

std::unique_ptr<world::WorldModel> fresh_world() {
  world::WorldConfig config;
  config.seed = kSeed;
  config.client_scale = kScale;
  return std::make_unique<world::WorldModel>(config);
}

CampaignConfig campaign_config(int threads) {
  CampaignConfig config;
  config.atlas_measurements_per_country = 20;
  config.threads = threads;
  return config;
}

Dataset run_with_shards(int threads) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(threads));
  return campaign.run();
}

void expect_identical(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.discarded_mismatch, b.discarded_mismatch);
  EXPECT_EQ(a.failed_measurements, b.failed_measurements);
  // Interned ids are only comparable across runs because the string
  // tables are built identically (canonical pre-interning on the main
  // thread); assert that directly.
  EXPECT_TRUE(a.names() == b.names());

  ASSERT_EQ(a.clients().size(), b.clients().size());
  for (auto ia = a.clients().begin(), ib = b.clients().begin();
       ia != a.clients().end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.iso2, ib->second.iso2);
    EXPECT_EQ(ia->second.position.lat, ib->second.position.lat);
    EXPECT_EQ(ia->second.position.lon, ib->second.position.lon);
    EXPECT_EQ(ia->second.nameserver_distance_miles,
              ib->second.nameserver_distance_miles);
  }

  ASSERT_EQ(a.doh().size(), b.doh().size());
  for (std::size_t i = 0; i < a.doh().size(); ++i) {
    const DohRecord& ra = a.doh()[i];
    const DohRecord& rb = b.doh()[i];
    EXPECT_EQ(ra.exit_id, rb.exit_id) << i;
    EXPECT_EQ(ra.iso2, rb.iso2) << i;
    EXPECT_EQ(ra.provider, rb.provider) << i;
    EXPECT_EQ(ra.run, rb.run) << i;
    EXPECT_EQ(ra.pop_index, rb.pop_index) << i;
    EXPECT_EQ(ra.pop_distance_miles, rb.pop_distance_miles) << i;
    EXPECT_EQ(ra.potential_improvement_miles,
              rb.potential_improvement_miles)
        << i;
    EXPECT_EQ(ra.tdoh_ms, rb.tdoh_ms) << i;
    EXPECT_EQ(ra.tdohr_ms, rb.tdohr_ms) << i;
  }

  ASSERT_EQ(a.do53().size(), b.do53().size());
  for (std::size_t i = 0; i < a.do53().size(); ++i) {
    const Do53Record& ra = a.do53()[i];
    const Do53Record& rb = b.do53()[i];
    EXPECT_EQ(ra.exit_id, rb.exit_id) << i;
    EXPECT_EQ(ra.iso2, rb.iso2) << i;
    EXPECT_EQ(ra.run, rb.run) << i;
    EXPECT_EQ(ra.via_atlas, rb.via_atlas) << i;
    EXPECT_EQ(ra.do53_ms, rb.do53_ms) << i;
  }
}

// Golden reference: one 0-shard run (one shard on one replica), shared by
// every comparison below (campaigns are deterministic, so one run serves
// as the fixture).
const Dataset& golden_serial() {
  static const Dataset data = [] {
    auto world = fresh_world();
    Campaign campaign(*world, campaign_config(1));
    return campaign.run(0);
  }();
  return data;
}

TEST(DeterminismTest, OneShardMatchesGoldenSerialRun) {
  expect_identical(run_with_shards(1), golden_serial());
}

TEST(DeterminismTest, TwoShardsMatchGoldenSerialRun) {
  expect_identical(run_with_shards(2), golden_serial());
}

TEST(DeterminismTest, FourShardsMatchGoldenSerialRun) {
  expect_identical(run_with_shards(4), golden_serial());
}

TEST(DeterminismTest, RepeatedShardedRunsAreIdentical) {
  expect_identical(run_with_shards(3), run_with_shards(3));
}

TEST(DeterminismTest, SerialPathReportsOneShard) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(1));
  const Dataset data = campaign.run(0);
  EXPECT_FALSE(data.doh().empty());
  EXPECT_EQ(campaign.stats().shards, 1);
  EXPECT_GT(campaign.stats().sessions, 0u);
  EXPECT_GT(campaign.stats().events_processed, 0u);
  EXPECT_GT(campaign.stats().wall_seconds, 0.0);
}

obs::Metrics metrics_with_shards(int threads) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(threads));
  const Dataset data = campaign.run(threads);
  EXPECT_FALSE(data.doh().empty());
  return campaign.telemetry().metrics;
}

// The merged metrics registry carries the same contract as the dataset:
// integer-only arithmetic, canonical-order merge, hence bit-identical
// for every DOHPERF_THREADS value and for a 0-shard run.
TEST(DeterminismTest, MergedMetricsIdenticalAcrossShardCounts) {
  const obs::Metrics serial = metrics_with_shards(0);
  EXPECT_GT(serial.counters.doh_queries, 0u);
  EXPECT_GT(serial.counters.do53_queries, 0u);
  EXPECT_GT(serial.counters.dns_queries, 0u);
  EXPECT_GT(serial.counters.messages, 0u);
  EXPECT_GT(serial.counters.bytes_on_wire, serial.counters.messages);
  EXPECT_GT(serial.counters.tunnels_established, 0u);
  EXPECT_GT(serial.counters.tls_handshakes, 0u);
  ASSERT_NE(serial.find_histogram("Do53"), nullptr);
  EXPECT_GT(serial.find_histogram("Do53")->count(), 0u);

  EXPECT_TRUE(metrics_with_shards(1) == serial);
  EXPECT_TRUE(metrics_with_shards(2) == serial);
  EXPECT_TRUE(metrics_with_shards(4) == serial);
}

// --- Fault-injection campaigns ---------------------------------------
// A non-trivial FaultPlanConfig turns on the per-attempt retry state
// machines, which draw extra randomness and schedule extra events — the
// exact machinery most likely to break the sharding contract. The plan
// is sampled per session from the session's private substream and its
// windows are epoch-relative, so the dataset must stay bit-identical
// for every thread count.
CampaignConfig fault_config(int threads) {
  CampaignConfig config = campaign_config(threads);
  config.faults = netsim::FaultPlanConfig::canonical();
  return config;
}

Dataset run_fault_campaign(int threads) {
  auto world = fresh_world();
  Campaign campaign(*world, fault_config(threads));
  return campaign.run();
}

const Dataset& golden_fault_serial() {
  static const Dataset data = [] {
    auto world = fresh_world();
    Campaign campaign(*world, fault_config(1));
    return campaign.run(0);
  }();
  return data;
}

TEST(DeterminismTest, FaultCampaignBitIdenticalAcrossShardCounts) {
  expect_identical(run_fault_campaign(1), golden_fault_serial());
  expect_identical(run_fault_campaign(2), golden_fault_serial());
  expect_identical(run_fault_campaign(4), golden_fault_serial());
}

TEST(DeterminismTest, FaultCampaignRecordsRetryActivity) {
  auto world = fresh_world();
  Campaign campaign(*world, fault_config(2));
  const Dataset data = campaign.run();
  EXPECT_FALSE(data.doh().empty());
  const obs::Metrics& m = campaign.telemetry().metrics;
  // The canonical plan must actually exercise the retry machinery: data
  // and handshake retransmits, hard give-ups, and backoff samples.
  EXPECT_GT(m.counters.loss_retries, 0u);
  EXPECT_GT(m.counters.handshake_retries, 0u);
  EXPECT_GT(m.counters.retry_timeouts + m.counters.failures, 0u);
  ASSERT_NE(m.find_histogram("retry_backoff"), nullptr);
  EXPECT_GT(m.find_histogram("retry_backoff")->count(), 0u);
}

TEST(DeterminismTest, FaultMetricsIdenticalAcrossShardCounts) {
  const auto fault_metrics = [](int threads) {
    auto world = fresh_world();
    Campaign campaign(*world, fault_config(threads));
    const Dataset data = campaign.run(threads);
    EXPECT_FALSE(data.doh().empty());
    return campaign.telemetry().metrics;
  };
  const obs::Metrics serial = fault_metrics(0);
  EXPECT_TRUE(fault_metrics(1) == serial);
  EXPECT_TRUE(fault_metrics(2) == serial);
  EXPECT_TRUE(fault_metrics(4) == serial);
}

// --- Warm path ([cache]/[reuse]) --------------------------------------
// The warm block samples the shared-cache model, walks a per-flow
// connection pool, and records per-query-index histograms — all from the
// session's private substream, with the model built once on the main
// thread and shared read-only. Dataset, metrics, and series must stay
// bit-identical at 0/1/2/4 shards with the whole feature on.
CampaignConfig warm_config(int threads) {
  CampaignConfig config = campaign_config(threads);
  config.cache.enabled = true;
  config.cache.population = 250000.0;
  config.reuse.enabled = true;
  config.reuse.queries_per_session = 4;
  return config;
}

TEST(DeterminismTest, WarmCampaignBitIdenticalAcrossShardCounts) {
  struct Outputs {
    Dataset data;
    obs::Metrics metrics;
    obs::MetricSeries series;
    std::string attribution;
  };
  const auto run = [](int threads) {
    auto world = fresh_world();
    Campaign campaign(*world, warm_config(threads));
    Dataset data = campaign.run(threads);
    EXPECT_FALSE(data.doh().empty());
    const CampaignTelemetry& t = campaign.telemetry();
    return Outputs{std::move(data), t.metrics, t.series,
                   report::attribution_csv(t.attribution).str()};
  };

  const Outputs serial = run(0);
  // The feature actually ran: shared-cache pricing and pooled reuse.
  EXPECT_GT(serial.metrics.counters.shared_cache_hits, 0u);
  EXPECT_GT(serial.metrics.counters.shared_cache_misses, 0u);
  EXPECT_GT(serial.metrics.counters.pool_cold, 0u);
  EXPECT_GT(serial.metrics.counters.pool_reuses, 0u);
  ASSERT_NE(serial.metrics.find_histogram("doh_warm_q1"), nullptr);
  EXPECT_GT(serial.metrics.find_histogram("doh_warm_q1")->count(), 0u);
  ASSERT_NE(serial.metrics.find_histogram("do53_warm_q0"), nullptr);
  EXPECT_GT(
      serial.series.latencies().count({"doh_warm_ms", "Cloudflare", ""}),
      0u);
  EXPECT_GT(serial.series.latencies().count({"do53_warm_ms", "Do53", ""}),
            0u);
  // The attribution ledger saw the warm cells (query 0 vs steady state)
  // and every rendered cell is a closed partition.
  EXPECT_NE(serial.attribution.find("doh_warm_first"), std::string::npos);
  EXPECT_NE(serial.attribution.find("doh_warm"), std::string::npos);
  const auto table = report::load_attribution_csv(serial.attribution);
  ASSERT_TRUE(table.has_value());
  EXPECT_TRUE(report::aggregate(*table).consistent());

  for (const int threads : {1, 2, 4}) {
    const Outputs sharded = run(threads);
    expect_identical(sharded.data, serial.data);
    EXPECT_TRUE(sharded.metrics == serial.metrics) << threads
                                                   << " threads";
    EXPECT_TRUE(sharded.series == serial.series) << threads << " threads";
    EXPECT_EQ(sharded.attribution, serial.attribution)
        << threads << " threads";
  }
}

// --- Observability outputs -------------------------------------------
// The sim-time metric series and the anomaly flight recorder carry the
// same bit-identity contract as the dataset: epoch-relative windows,
// integer-only cells, canonical-order merges. So do the figure CSVs
// derived from the dataset — rendered by the same scenario renderers the
// fig4/fig5 benches use and compared as strings.

CampaignConfig obs_fault_config(int threads) {
  CampaignConfig config = fault_config(threads);
  // Low enough that slow flows actually trip the recorder at test scale.
  config.anomalies.slow_flow_ms = 500.0;
  return config;
}

TEST(DeterminismTest, ObservabilityOutputsBitIdenticalAcrossShardCounts) {
  struct Outputs {
    obs::MetricSeries series;
    obs::FlightRecorder anomalies;
    std::string fig4;
    std::string fig5;
    std::string attribution;
  };
  const auto run = [](int threads) {
    auto world = fresh_world();
    Campaign campaign(*world, obs_fault_config(threads));
    const Dataset data = campaign.run(threads);
    EXPECT_FALSE(data.doh().empty());
    const CampaignTelemetry& t = campaign.telemetry();
    return Outputs{t.series, t.anomalies, scenario::fig4_csv(data).str(),
                   scenario::fig5_csv(data).str(),
                   report::attribution_csv(t.attribution).str()};
  };

  const Outputs serial = run(0);
  EXPECT_FALSE(serial.series.empty());
  // The fault campaign records both counter and latency tracks...
  EXPECT_GT(serial.series.counters().count({"fault_loss_spike", "", ""}),
            0u);
  EXPECT_GT(
      serial.series.latencies().count({"doh_ms", "Cloudflare", ""}), 0u);
  // ...and the always-on recorder examined every flow and retained some.
  EXPECT_GT(serial.anomalies.counts().flows, 0u);
  EXPECT_GT(serial.anomalies.counts().anomalous, 0u);
  EXPECT_FALSE(serial.anomalies.retained().empty());
  EXPECT_LE(serial.anomalies.retained().size(),
            serial.anomalies.policy().ring_capacity);
  // The replay pass re-derived every retained flow's span tree.
  for (const auto& [key, rec] : serial.anomalies.retained()) {
    EXPECT_FALSE(rec.spans.empty())
        << "slot " << key.first << " flow " << key.second;
  }

  for (const int threads : {1, 2, 4}) {
    const Outputs sharded = run(threads);
    EXPECT_TRUE(sharded.series == serial.series) << threads << " threads";
    EXPECT_TRUE(sharded.anomalies == serial.anomalies)
        << threads << " threads";
    EXPECT_EQ(sharded.fig4, serial.fig4) << threads << " threads";
    EXPECT_EQ(sharded.fig5, serial.fig5) << threads << " threads";
    // Retry-heavy fault campaign: the phase decomposition CSV carries
    // the same bit-identity contract as the figure CSVs.
    EXPECT_EQ(sharded.attribution, serial.attribution)
        << threads << " threads";
  }
}

// --- SLO tracker ------------------------------------------------------
// The SLO pipeline stacks every shard-sensitive mechanism at once: a
// virtual campaign-time axis (session_spacing), recurring provider
// outage + regional blackout schedules windowed on that axis, outcome
// classification at flow completion, and burn-rate evaluation over the
// merged integer cells. All of it must be bit-identical at 0/1/2/4
// shards — tracker cells, the rendered availability CSV, and the alert
// event stream.
CampaignConfig slo_fault_config(int threads) {
  CampaignConfig config = fault_config(threads);
  config.session_spacing = netsim::from_ms(60'000.0);
  config.faults.provider_outage_period = netsim::from_ms(3'600'000.0);
  config.faults.provider_outage_duration = netsim::from_ms(600'000.0);
  config.faults.provider_outage_stagger = netsim::from_ms(900'000.0);
  config.faults.regional_blackout_period = netsim::from_ms(7'200'000.0);
  config.faults.regional_blackout_duration = netsim::from_ms(300'000.0);
  config.slo.enabled = true;
  config.slo.window = netsim::from_ms(300'000.0);
  config.slo.p99_objective_ms = 2000.0;
  return config;
}

TEST(DeterminismTest, SloOutputsBitIdenticalAcrossShardCounts) {
  struct Outputs {
    obs::SloTracker slo;
    std::vector<obs::SloAlert> alerts;
    std::string availability;
  };
  const auto run = [](int threads) {
    auto world = fresh_world();
    Campaign campaign(*world, slo_fault_config(threads));
    const Dataset data = campaign.run(threads);
    EXPECT_FALSE(data.doh().empty());
    const obs::SloTracker& slo = campaign.telemetry().slo;
    return Outputs{slo, slo.evaluate(), report::availability_csv(slo).str()};
  };

  const Outputs serial = run(0);
  ASSERT_FALSE(serial.slo.empty());
  // The recurring schedules must actually produce outage/blackout
  // outcomes, and the campaign axis must spread sessions over many
  // windows (spacing 60s, window 300s).
  std::uint64_t outages = 0, blackouts = 0;
  std::size_t max_windows = 0;
  for (const auto& [key, windows] : serial.slo.cells()) {
    max_windows = std::max(max_windows, windows.size());
    for (const auto& [window, cell] : windows) {
      outages += cell.outcomes[static_cast<int>(
          obs::Outcome::kProviderOutage)];
      blackouts +=
          cell.outcomes[static_cast<int>(obs::Outcome::kBlackout)];
    }
  }
  EXPECT_GT(outages, 0u);
  EXPECT_GT(blackouts, 0u);
  EXPECT_GT(max_windows, 4u);
  // Sustained 100%-error outage windows must fire burn-rate alerts.
  EXPECT_FALSE(serial.alerts.empty());

  for (const int threads : {1, 2, 4}) {
    const Outputs sharded = run(threads);
    EXPECT_TRUE(sharded.slo == serial.slo) << threads << " threads";
    EXPECT_TRUE(sharded.alerts == serial.alerts) << threads << " threads";
    EXPECT_EQ(sharded.availability, serial.availability)
        << threads << " threads";
  }
}

TEST(DeterminismTest, ShardProfilesCoverAllSessionsAndEvents) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(3));
  (void)campaign.run();
  const CampaignStats& stats = campaign.stats();
  ASSERT_EQ(stats.shard_profiles.size(), 3u);
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  for (const ShardProfile& p : stats.shard_profiles) {
    sessions += p.sessions;
    events += p.events;
    EXPECT_GT(p.queue_high_water, 0u);
    EXPECT_GE(p.wall_seconds, 0.0);
  }
  EXPECT_EQ(sessions, stats.sessions);
  EXPECT_EQ(events, stats.events_processed);
}

// --- Streaming sink ---------------------------------------------------
// The streaming campaign folds rows into sketches/bitsets/counters as
// sessions complete instead of retaining them. Its determinism contract
// is the same: every aggregate bit-identical at 0/1/2/4 shards, and
// the fig4/fig5 CSVs built from the sink must be stable strings.

CampaignConfig stream_config(int threads) {
  CampaignConfig config = campaign_config(threads);
  config.stream.client_stats = true;  // exercise the dense arrays too
  return config;
}

StreamSink stream_with_shards(int threads) {
  auto world = fresh_world();
  Campaign campaign(*world, stream_config(threads));
  return campaign.run_streaming(threads);
}

const StreamSink& golden_stream_serial() {
  static const StreamSink sink = stream_with_shards(0);
  return sink;
}

TEST(DeterminismTest, StreamingSinkBitIdenticalAcrossShardCounts) {
  const StreamSink& serial = golden_stream_serial();
  EXPECT_GT(serial.sessions(), 0u);
  EXPECT_GT(serial.doh_rows(), 0u);
  EXPECT_GT(serial.do53_rows(), 0u);
  EXPECT_GT(serial.atlas_rows(), 0u);
  EXPECT_GT(serial.discarded_mismatch, 0u);

  const std::string fig4 = scenario::fig4_csv(serial).str();
  const std::string fig5 = scenario::fig5_csv(serial).str();
  EXPECT_FALSE(fig4.empty());
  EXPECT_FALSE(fig5.empty());

  for (const int threads : {1, 2, 4}) {
    const StreamSink sharded = stream_with_shards(threads);
    EXPECT_TRUE(sharded == serial) << threads << " threads";
    EXPECT_EQ(scenario::fig4_csv(sharded).str(), fig4)
        << threads << " threads";
    EXPECT_EQ(scenario::fig5_csv(sharded).str(), fig5)
        << threads << " threads";
  }
}

// Both sink modes execute the identical session schedule, so everything
// that does not depend on the sink — row counts, failure totals, the
// analysis filter, exact client medians, the merged metrics — must agree
// exactly between them.
TEST(DeterminismTest, StreamingAgreesWithRetainedCampaign) {
  auto world_stream = fresh_world();
  Campaign stream_campaign(*world_stream, stream_config(2));
  const StreamSink sink = stream_campaign.run_streaming();

  auto world_retained = fresh_world();
  Campaign retained_campaign(*world_retained, stream_config(2));
  const Dataset data = retained_campaign.run();

  EXPECT_EQ(sink.discarded_mismatch, data.discarded_mismatch);
  EXPECT_EQ(sink.failed_measurements(), data.failed_measurements);
  EXPECT_EQ(sink.doh_rows(), data.doh().size());
  EXPECT_EQ(sink.do53_rows() + sink.atlas_rows(), data.do53().size());
  EXPECT_EQ(sink.client_count(), data.clients().size());

  EXPECT_EQ(sink.analysis_countries(10), data.analysis_countries(10));

  // Exact client medians: the dense stream store sees the same values in
  // the same per-client order as the retained fold, so the stats must be
  // bit-identical, NaNs excepted.
  const auto stream_stats = sink.client_provider_stats();
  const auto retained_stats = data.client_provider_stats();
  ASSERT_EQ(stream_stats.size(), retained_stats.size());
  for (std::size_t i = 0; i < stream_stats.size(); ++i) {
    const ClientProviderStat& s = stream_stats[i];
    const ClientProviderStat& r = retained_stats[i];
    EXPECT_EQ(s.exit_id, r.exit_id) << i;
    EXPECT_EQ(s.provider, r.provider) << i;
    EXPECT_EQ(s.iso2, r.iso2) << i;
    EXPECT_EQ(s.tdoh_ms, r.tdoh_ms) << i;
    EXPECT_EQ(s.tdohr_ms, r.tdohr_ms) << i;
    EXPECT_EQ(s.pop_distance_miles, r.pop_distance_miles) << i;
    EXPECT_EQ(s.potential_improvement_miles,
              r.potential_improvement_miles)
        << i;
    EXPECT_EQ(s.nameserver_distance_miles, r.nameserver_distance_miles)
        << i;
    if (std::isnan(r.do53_ms)) {
      EXPECT_TRUE(std::isnan(s.do53_ms)) << i;
    } else {
      EXPECT_EQ(s.do53_ms, r.do53_ms) << i;
    }
  }

  // Sketch medians approximate the exact medians within the sketch's
  // relative bucket resolution (2^(1/32) per bucket ≈ 2.2%).
  const std::vector<double> all_doh = data.tdoh_values();
  EXPECT_NEAR(sink.tdoh_sketch().quantile(0.5),
              stats::median(all_doh), stats::median(all_doh) * 0.05);

  // The observability side is sink-independent entirely.
  const CampaignTelemetry& streamed = stream_campaign.telemetry();
  const CampaignTelemetry& retained = retained_campaign.telemetry();
  EXPECT_TRUE(streamed.metrics == retained.metrics);
  EXPECT_TRUE(streamed.series == retained.series);
  EXPECT_TRUE(streamed.anomalies == retained.anomalies);
}

TEST(DeterminismTest, ShardProfilesReportArenaActivity) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(2));
  (void)campaign.run();
  for (const ShardProfile& p : campaign.stats().shard_profiles) {
    // Every session coroutine frame comes from the shard arena.
    EXPECT_GT(p.arena.allocations, 0u) << p.shard;
    EXPECT_GT(p.arena.high_water_bytes, 0u) << p.shard;
    EXPECT_GT(p.arena.slab_bytes, 0u) << p.shard;
    // Batching recycles frames: reuse must dominate fresh slab growth.
    EXPECT_GT(p.arena.reused, p.arena.allocations / 2) << p.shard;
    // By the final drain every frame was returned.
    EXPECT_EQ(p.arena.live_bytes, 0u) << p.shard;
  }
}

// The scenario layer's end of the contract: one spec text means one
// hash, and one hash means bit-identical artifacts no matter how many
// shards executed the campaign.
TEST(DeterminismTest, SpecDrivenRunsBitIdenticalAcrossShardCounts) {
  const scenario::SpecParseResult parsed = scenario::parse_spec(
      "name = \"determinism\"\n"
      "[world]\n"
      "seed = 99\n"
      "client_scale = 0.05\n"
      "[campaign]\n"
      "atlas_measurements_per_country = 20\n",
      "<memory>");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const auto run_at = [&](int threads) {
    scenario::CampaignSpec spec = parsed.doc.base;
    spec.campaign.threads = threads;
    return scenario::run(spec);
  };
  const scenario::RunResult one = run_at(1);
  const scenario::RunResult two = run_at(2);
  const scenario::RunResult four = run_at(4);

  // threads is excluded from the hash: one scenario, one identity.
  EXPECT_EQ(one.hash, two.hash);
  EXPECT_EQ(one.hash, four.hash);
  EXPECT_EQ(one.hash, scenario::spec_hash(parsed.doc.base));

  // Figure artifacts and headline aggregates are bit-identical.
  EXPECT_EQ(scenario::fig4_csv(one.dataset).str(),
            scenario::fig4_csv(two.dataset).str());
  EXPECT_EQ(scenario::fig4_csv(one.dataset).str(),
            scenario::fig4_csv(four.dataset).str());
  EXPECT_EQ(scenario::fig5_csv(one.dataset).str(),
            scenario::fig5_csv(two.dataset).str());
  EXPECT_EQ(scenario::fig5_csv(one.dataset).str(),
            scenario::fig5_csv(four.dataset).str());
  EXPECT_EQ(one.doh1_median_ms, four.doh1_median_ms);
  EXPECT_EQ(one.do53_median_ms, four.do53_median_ms);
  EXPECT_EQ(one.retries, four.retries);
  EXPECT_EQ(one.retry_timeouts, four.retry_timeouts);
  expect_identical(one.dataset, four.dataset);
}

TEST(DeterminismTest, StatsCountShardsAndSessions) {
  auto world = fresh_world();
  Campaign campaign(*world, campaign_config(4));
  const Dataset data = campaign.run();
  EXPECT_EQ(campaign.stats().shards, 4);
  // Every DoH/Do53 row came out of some session slot.
  EXPECT_GE(campaign.stats().sessions * 5,
            data.doh().size() + data.do53().size());
  EXPECT_GT(campaign.stats().events_processed, 0u);
}

}  // namespace
}  // namespace dohperf::measure
