// Tests for the browser DoH policy model (off / opportunistic / strict).
#include <gtest/gtest.h>

#include "client/policy.h"
#include "obs/metrics.h"
#include "obs/outcome.h"
#include "world/world_model.h"

namespace dohperf::client {
namespace {

struct PolicyFixture : ::testing::Test {
  static world::WorldModel& world() {
    static world::WorldModel instance = [] {
      world::WorldConfig config;
      config.seed = 123;
      config.client_scale = 0.3;
      config.only_countries = {"SE", "BR"};
      return world::WorldModel(config);
    }();
    return instance;
  }

  static PolicyContext make_ctx(const std::string& iso2,
                                bool doh_unreachable) {
    netsim::Rng rng = world().rng().split("policy-test-" + iso2);
    const proxy::ExitNode* exit = world().brightdata().pick_exit(iso2, rng);
    EXPECT_NE(exit, nullptr);
    PolicyContext ctx;
    ctx.client = exit->site;
    ctx.default_resolver = exit->default_resolver;
    ctx.doh = &world().doh_server(0, 0);
    ctx.doh_unreachable = doh_unreachable;
    return ctx;
  }

  static PolicyOutcome run(const PolicyContext& ctx, DohMode mode) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return resolve_with_policy(net, ctx, mode);
    });
  }

  /// Like run(), but with a metrics registry attached so the fallback
  /// outcome counters are observable.
  static PolicyOutcome run_with_metrics(const PolicyContext& ctx,
                                        DohMode mode,
                                        obs::Metrics& metrics) {
    return world().run_flow([&](netsim::NetCtx& net) {
      net.metrics = &metrics;
      return resolve_with_policy(net, ctx, mode);
    });
  }
};

TEST_F(PolicyFixture, OffModeUsesDo53) {
  const auto outcome = run(make_ctx("SE", false), DohMode::kOff);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_FALSE(outcome.downgraded);
  EXPECT_GT(outcome.elapsed_ms, 0.0);
}

TEST_F(PolicyFixture, OpportunisticUsesDohWhenHealthy) {
  const auto outcome = run(make_ctx("SE", false), DohMode::kOpportunistic);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_TRUE(outcome.used_doh);
  EXPECT_FALSE(outcome.downgraded);
}

TEST_F(PolicyFixture, OpportunisticDowngradesOnOutage) {
  const auto outcome = run(make_ctx("SE", true), DohMode::kOpportunistic);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_TRUE(outcome.downgraded);
  // The timeout (1.5 s) dominates the elapsed time.
  EXPECT_GT(outcome.elapsed_ms, 1500.0);
}

TEST_F(PolicyFixture, StrictFailsClosedOnOutage) {
  const auto outcome = run(make_ctx("SE", true), DohMode::kStrict);
  EXPECT_FALSE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_FALSE(outcome.downgraded);
  EXPECT_GE(outcome.elapsed_ms, 1500.0);
}

TEST_F(PolicyFixture, StrictResolvesWhenHealthy) {
  const auto outcome = run(make_ctx("BR", false), DohMode::kStrict);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_TRUE(outcome.used_doh);
}

TEST_F(PolicyFixture, DohFirstUseCostsMoreThanDo53) {
  const auto ctx = make_ctx("SE", false);
  std::vector<double> off, doh;
  for (int i = 0; i < 9; ++i) {
    off.push_back(run(ctx, DohMode::kOff).elapsed_ms);
    doh.push_back(run(ctx, DohMode::kOpportunistic).elapsed_ms);
  }
  std::nth_element(off.begin(), off.begin() + 4, off.end());
  std::nth_element(doh.begin(), doh.begin() + 4, doh.end());
  EXPECT_GT(doh[4], off[4]);
}

TEST_F(PolicyFixture, StrictModeWaitsTheDohTimeout) {
  // An unreachable resolver answers nothing: strict mode gives up when
  // its SYN retransmit schedule reaches kDohTimeout, not a moment later.
  const auto outcome = run(make_ctx("SE", true), DohMode::kStrict);
  EXPECT_DOUBLE_EQ(outcome.elapsed_ms, netsim::to_ms(kDohTimeout));
}

TEST_F(PolicyFixture, RaceResolvesThroughOutage) {
  const auto outcome = run(make_ctx("SE", true), DohMode::kRace);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_FALSE(outcome.used_doh);
  EXPECT_TRUE(outcome.downgraded);
  EXPECT_EQ(outcome.outcome, obs::Outcome::kFallbackOk);
  // The Do53 leg answers after its stagger; the client never sits out
  // the 1.5 s DoH timeout the serial policies pay.
  EXPECT_GE(outcome.elapsed_ms, 250.0);
  EXPECT_LT(outcome.elapsed_ms, 1500.0);
}

TEST_F(PolicyFixture, RacePicksTheFasterLegWhenHealthy) {
  const auto outcome = run(make_ctx("SE", false), DohMode::kRace);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_TRUE(obs::is_success(outcome.outcome));
  // Whichever leg won, the flags must agree with each other.
  EXPECT_EQ(outcome.downgraded, !outcome.used_doh);
  EXPECT_GT(outcome.elapsed_ms, 0.0);
}

TEST_F(PolicyFixture, OutcomeTaxonomyPerMode) {
  EXPECT_EQ(run(make_ctx("SE", false), DohMode::kOff).outcome,
            obs::Outcome::kOk);
  EXPECT_EQ(run(make_ctx("SE", false), DohMode::kOpportunistic).outcome,
            obs::Outcome::kOk);
  EXPECT_EQ(run(make_ctx("SE", true), DohMode::kOpportunistic).outcome,
            obs::Outcome::kFallbackOk);
  EXPECT_EQ(run(make_ctx("SE", true), DohMode::kStrict).outcome,
            obs::Outcome::kUnreachable);
  EXPECT_EQ(run(make_ctx("BR", false), DohMode::kStrict).outcome,
            obs::Outcome::kOk);
}

TEST_F(PolicyFixture, FallbackOutcomeCountersSplitOkFromFailed) {
  obs::Metrics metrics;
  const auto outcome =
      run_with_metrics(make_ctx("SE", true), DohMode::kOpportunistic,
                       metrics);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_EQ(metrics.counters.fallbacks, 1U);
  EXPECT_EQ(metrics.counters.fallback_ok, 1U);
  EXPECT_EQ(metrics.counters.fallback_failed, 0U);

  // The race policy counts its Do53 rescue the same way.
  obs::Metrics race_metrics;
  run_with_metrics(make_ctx("SE", true), DohMode::kRace, race_metrics);
  EXPECT_EQ(race_metrics.counters.fallbacks, 1U);
  EXPECT_EQ(race_metrics.counters.fallback_ok, 1U);
  EXPECT_EQ(race_metrics.counters.fallback_failed, 0U);
}

TEST_F(PolicyFixture, ModeNames) {
  EXPECT_EQ(to_string(DohMode::kOff), "off (Do53)");
  EXPECT_EQ(to_string(DohMode::kOpportunistic),
            "opportunistic (DoH with Do53 fallback)");
  EXPECT_EQ(to_string(DohMode::kStrict), "strict (DoH only)");
  EXPECT_EQ(to_string(DohMode::kRace), "race (DoH raced against Do53)");
}

}  // namespace
}  // namespace dohperf::client
