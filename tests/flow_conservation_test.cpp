// Flow conservation: every measurement flow a campaign launches is counted
// exactly once.
//
// Availability is measured from per-flow success and failure counts, so a
// flow that a sink drops or counts twice moves every availability figure.
// Each exit session runs one DoH flow per provider plus one Do53 flow, and
// each Atlas session one Do53 flow. Every flow exits through one outcome
// classification into the SLO tracker, which keeps a per-provider
// aggregate beside the per-country keys. So, for every config, sink mode
// and shard layout:
//   * the aggregate keys' totals equal the per-country keys' totals;
//   * both equal (providers + 1) x exit sessions + Atlas sessions;
//   * the aggregate error count equals the campaign's failed measurements.
// Flow roots are counted once in every vocabulary too:
//   * the DoH and Do53 query counters equal the attribution ledger's flows
//     under the cold and first-warm transports of each;
//   * per DoH provider, the latency histogram, the all-countries `doh_ms`
//     series track and the SLO tracker's successes count the same flows.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>

#include "measure/campaign.h"
#include "netsim/faultplan.h"
#include "world/world_model.h"

namespace dohperf::measure {
namespace {

enum class Config { kCold, kFaults, kWarm };
enum class Sink { kRetained, kStreaming };

CampaignConfig make_config(Config which) {
  CampaignConfig config;
  config.atlas_measurements_per_country = 20;
  if (which == Config::kFaults) {
    config.faults = netsim::FaultPlanConfig::canonical();
  }
  if (which == Config::kWarm) {
    config.cache.enabled = true;
    config.cache.population = 250000.0;
    config.reuse.enabled = true;
    config.reuse.queries_per_session = 4;
  }
  return config;
}

/// (config, sink mode, shards); 0 shards runs as one shard ("Serial").
using Case = std::tuple<Config, Sink, int>;

class FlowConservationTest : public ::testing::TestWithParam<Case> {};

TEST_P(FlowConservationTest, EveryFlowIsCountedOnce) {
  const auto [which, sink, shards] = GetParam();
  world::WorldConfig world_config;
  world_config.seed = 99;
  world_config.client_scale = 0.05;
  world::WorldModel world(world_config);
  const CampaignConfig config = make_config(which);
  Campaign campaign(world, config);

  std::uint64_t clients = 0;
  std::uint64_t failed = 0;
  if (sink == Sink::kRetained) {
    const Dataset data = campaign.run(shards);
    clients = data.clients().size();
    failed = data.failed_measurements;
  } else {
    const StreamSink stream = campaign.run_streaming(shards);
    clients = stream.client_count();
    failed = stream.failed_measurements();
  }

  const std::uint64_t exit_sessions =
      clients * static_cast<std::uint64_t>(config.runs_per_client);
  ASSERT_GT(campaign.stats().sessions, exit_sessions);
  const std::uint64_t atlas_sessions =
      campaign.stats().sessions - exit_sessions;
  const std::uint64_t flows =
      (world.providers().size() + 1) * exit_sessions + atlas_sessions;

  std::uint64_t aggregate_total = 0;
  std::uint64_t country_total = 0;
  std::uint64_t aggregate_errors = 0;
  for (const obs::SloBudget& budget : campaign.telemetry().slo.budgets()) {
    if (budget.country.empty()) {
      aggregate_total += budget.total;
      aggregate_errors += budget.errors;
    } else {
      country_total += budget.total;
    }
  }
  EXPECT_EQ(aggregate_total, country_total);
  EXPECT_EQ(aggregate_total, flows);
  EXPECT_EQ(aggregate_errors, failed);

  const CampaignTelemetry& telemetry = campaign.telemetry();
  const auto ledger_flows =
      [&](std::initializer_list<std::string_view> transports) {
        std::uint64_t n = 0;
        const auto& entries = telemetry.attribution.entries();
        for (const auto& [ids, entry] : entries) {
          for (const std::string_view transport : transports) {
            if (entries.names(ids)[2] == transport) n += entry.flows;
          }
        }
        return n;
      };
  EXPECT_EQ(telemetry.metrics.counters.doh_queries,
            ledger_flows({"doh", "doh_warm_first"}));
  EXPECT_EQ(telemetry.metrics.counters.do53_queries,
            ledger_flows({"do53", "do53_warm_first"}));

  for (const anycast::Provider& provider : world.providers()) {
    const obs::LatencyHistogram* histogram =
        telemetry.metrics.find_histogram(provider.name());
    const std::uint64_t histogram_count =
        histogram != nullptr ? histogram->count() : 0;
    std::uint64_t series_count = 0;
    const auto track =
        telemetry.series.latencies().find({"doh_ms", provider.name(), ""});
    if (track != nullptr) {
      for (const auto& [window, cell] : *track) {
        series_count += cell.count();
      }
    }
    std::uint64_t successes = 0;
    for (const obs::SloBudget& budget : telemetry.slo.budgets()) {
      if (budget.provider == provider.name() && budget.country.empty()) {
        successes += budget.total - budget.errors;
      }
    }
    EXPECT_GT(histogram_count, 0u) << provider.name();
    EXPECT_EQ(series_count, histogram_count) << provider.name();
    EXPECT_EQ(successes, histogram_count) << provider.name();
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [which, sink, shards] = info.param;
  const char* config = which == Config::kCold     ? "Cold"
                       : which == Config::kFaults ? "Faults"
                                                  : "Warm";
  return std::string(config) +
         (sink == Sink::kRetained ? "Retained" : "Streaming") +
         (shards == 0 ? "Serial" : std::to_string(shards) + "Shards");
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, FlowConservationTest,
    ::testing::Combine(::testing::Values(Config::kCold, Config::kFaults,
                                         Config::kWarm),
                       ::testing::Values(Sink::kRetained, Sink::kStreaming),
                       ::testing::Values(0, 2)),
    case_name);

}  // namespace
}  // namespace dohperf::measure
