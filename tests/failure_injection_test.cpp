// Failure injection: the pipeline must degrade gracefully, not crash,
// when measurements fail wholesale or inputs are hostile.
#include <gtest/gtest.h>

#include "client/policy.h"
#include "measure/campaign.h"
#include "measure/regression.h"
#include "netsim/faultplan.h"
#include "stats/summary.h"
#include "web/pageload.h"
#include "world/world_model.h"

namespace dohperf::measure {
namespace {

world::WorldConfig small_config(std::uint64_t seed) {
  world::WorldConfig config;
  config.seed = seed;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "BR"};
  return config;
}

TEST(FailureInjectionTest, TotalProviderFailureYieldsEmptyDohData) {
  world::WorldModel world(small_config(1));
  CampaignConfig config;
  config.provider_failure_rate = 1.0;  // every DoH measurement fails
  config.atlas_measurements_per_country = 0;
  Campaign campaign(world, config);
  const Dataset data = campaign.run();

  EXPECT_TRUE(data.doh().empty());
  EXPECT_GT(data.failed_measurements, 0u);
  // Do53 is unaffected by DoH failures.
  EXPECT_FALSE(data.do53().empty());
  // Aggregations over the empty side behave sanely: no provider has a
  // single client, so no country passes the analysis filter.
  for (const char* provider : {"Cloudflare", "Google", "NextDNS", "Quad9"}) {
    EXPECT_EQ(data.unique_clients(provider), 0u) << provider;
  }
  EXPECT_TRUE(data.analysis_countries().empty());
  EXPECT_TRUE(std::isnan(stats::median(data.tdoh_values())));
  EXPECT_TRUE(regression_rows(data).empty());
}

TEST(FailureInjectionTest, ZeroRunsProducesEmptyDataset) {
  world::WorldModel world(small_config(2));
  CampaignConfig config;
  config.runs_per_client = 0;
  config.atlas_measurements_per_country = 0;
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  EXPECT_TRUE(data.doh().empty());
  EXPECT_TRUE(data.do53().empty());
  // Clients are still enumerated (the Maxmind pass runs regardless).
  EXPECT_FALSE(data.clients().empty());
}

TEST(FailureInjectionTest, FullMislabelDiscardsEverything) {
  world::WorldConfig wconfig = small_config(3);
  wconfig.mislabel_rate = 1.0;
  world::WorldModel world(wconfig);
  CampaignConfig config;
  config.atlas_measurements_per_country = 0;
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  // The first country built (BR, alphabetically) has nowhere to mislabel
  // to, so its nodes survive; every other country's nodes are discarded.
  EXPECT_GT(data.discarded_mismatch, 0u);
  for (const auto& [id, info] : data.clients()) {
    EXPECT_EQ(info.iso2, "BR");
  }
}

TEST(FailureInjectionTest, HeavyLossStillCompletes) {
  // Crank packet loss far beyond calibration: flows must still terminate
  // (outside fault episodes the retry machinery charges one bounded
  // retransmit timer, and under episodes it has a hard give-up).
  world::WorldModel world(small_config(4));
  // Reach in via the public API: run a campaign; loss applies per-site.
  CampaignConfig config;
  config.atlas_measurements_per_country = 5;
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  EXPECT_FALSE(data.do53().empty());
  for (const auto& rec : data.do53()) {
    EXPECT_LT(rec.do53_ms, 10000.0);  // bounded even with retry penalties
  }
}

TEST(FailureInjectionTest, TinyWorldSurvivesAnalysis) {
  world::WorldConfig wconfig;
  wconfig.seed = 5;
  wconfig.client_scale = 0.02;  // a handful of clients
  wconfig.only_countries = {"SE"};
  world::WorldModel world(wconfig);
  CampaignConfig config;
  config.atlas_measurements_per_country = 0;
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  // Below the 10-client threshold: excluded from analysis but intact.
  EXPECT_TRUE(data.analysis_countries().empty());
  const auto rows = regression_rows(data);
  for (const auto& row : rows) {
    EXPECT_GT(row.multiplier_1, 0.0);
  }
}

// --- Episodic fault plans ---------------------------------------------

/// Policy run against a world with a hand-built fault plan attached.
client::PolicyOutcome run_policy_under_plan(world::WorldModel& world,
                                            const netsim::FaultPlan& plan,
                                            client::DohMode mode) {
  netsim::Rng rng = world.rng().split("fault-policy-test");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", rng);
  EXPECT_NE(exit, nullptr);

  client::PolicyContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world.doh_server(0, 0);

  return world.run_flow([&](netsim::NetCtx& net) {
    net.faults = &plan;
    net.fault_epoch = net.sim.now();
    return client::resolve_with_policy(net, ctx, mode);
  });
}

/// A blackout severing only the client <-> DoH-PoP link: the SYN
/// retransmit schedule must run dry (bounded, no hang) and an
/// opportunistic client must genuinely fall back to Do53.
netsim::FaultPlan doh_link_blackout(world::WorldModel& world,
                                    const netsim::Site& client) {
  netsim::FaultPlan plan;
  netsim::BlackoutEpisode episode;
  episode.window = {netsim::Duration::zero(), netsim::from_ms(600000.0)};
  episode.a = client.position;
  episode.a_radius_miles = 1.0;
  episode.b = world.doh_server(0, 0).site().position;
  episode.b_radius_miles = 1.0;
  plan.add_blackout(episode);
  return plan;
}

TEST(FailureInjectionTest, BlackoutForcesOpportunisticFallback) {
  world::WorldModel world(small_config(6));
  netsim::Rng rng = world.rng().split("fault-policy-test");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", rng);
  ASSERT_NE(exit, nullptr);
  const netsim::FaultPlan plan = doh_link_blackout(world, exit->site);

  const auto outcome =
      run_policy_under_plan(world, plan, client::DohMode::kOpportunistic);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_TRUE(outcome.downgraded);
  // The SYN schedule (1 s doubling, 5 transmissions) gives up after 15 s
  // of backoff; the client must come back well before the window closes.
  EXPECT_LT(outcome.elapsed_ms, 60000.0);
}

TEST(FailureInjectionTest, BlackoutStrictFailsClosed) {
  world::WorldModel world(small_config(6));
  netsim::Rng rng = world.rng().split("fault-policy-test");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", rng);
  ASSERT_NE(exit, nullptr);
  const netsim::FaultPlan plan = doh_link_blackout(world, exit->site);

  const auto outcome =
      run_policy_under_plan(world, plan, client::DohMode::kStrict);
  EXPECT_FALSE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_FALSE(outcome.downgraded);
  EXPECT_LT(outcome.elapsed_ms, 60000.0);
}

TEST(FailureInjectionTest, BlackoutFailsEveryPageLoadMode) {
  // A client whose every link is dead for ten minutes: the cold DoH
  // session cannot bootstrap or connect, and no domain's connection to
  // the content host comes up, so no mode may report a loaded page.
  world::WorldModel world(small_config(6));
  netsim::Rng rng = world.rng().split("fault-pageload-test");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", rng);
  ASSERT_NE(exit, nullptr);
  netsim::FaultPlan plan;
  netsim::BlackoutEpisode episode;
  episode.window = {netsim::Duration::zero(), netsim::from_ms(600000.0)};
  episode.a = exit->site.position;
  episode.a_radius_miles = 1.0;
  plan.add_blackout(episode);

  web::PageLoadContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world.doh_server(0, 0);
  ctx.web_server = world.authority().site();
  for (const web::DnsMode mode : {web::DnsMode::kDo53, web::DnsMode::kDohCold,
                                  web::DnsMode::kDohWarm}) {
    const web::PageLoadResult result =
        world.run_flow([&](netsim::NetCtx& net) {
          net.faults = &plan;
          net.fault_epoch = net.sim.now();
          return web::load_page(net, ctx, /*domains=*/8, mode);
        });
    EXPECT_FALSE(result.ok) << web::to_string(mode);
  }
}

TEST(FailureInjectionTest, BrownoutCampaignCompletes) {
  world::WorldModel world(small_config(7));
  CampaignConfig config;
  config.atlas_measurements_per_country = 5;
  config.faults.brownout_probability = 1.0;
  config.faults.brownout_multiplier = 25.0;
  config.faults.brownout_duration = netsim::from_ms(60000.0);
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  EXPECT_FALSE(data.do53().empty());
  for (const auto& rec : data.do53()) {
    EXPECT_GT(rec.do53_ms, 0.0);
    EXPECT_LT(rec.do53_ms, 120000.0);  // inflated but bounded
  }
}

TEST(FailureInjectionTest, CertainLossSpikeTerminatesWithFailures) {
  // Every session suffers a total-loss spike covering the whole planet:
  // exchanges inside the window must exhaust their retransmit budgets
  // and give up — the campaign terminates and reports the damage.
  world::WorldModel world(small_config(8));
  CampaignConfig config;
  config.atlas_measurements_per_country = 5;
  config.faults.loss_spike_probability = 1.0;
  config.faults.spike_extra_loss = 1.0;
  config.faults.spike_radius_miles = netsim::kAnywhereMiles;
  config.faults.spike_duration = netsim::from_ms(600000.0);
  Campaign campaign(world, config);
  const Dataset data = campaign.run();
  EXPECT_GT(data.failed_measurements, 0u);
  EXPECT_GT(campaign.telemetry().metrics.counters.retry_timeouts, 0u);
  EXPECT_GT(campaign.telemetry().metrics.counters.loss_retries +
                campaign.telemetry().metrics.counters.handshake_retries,
            0u);
}

}  // namespace
}  // namespace dohperf::measure
