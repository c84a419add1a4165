// End-to-end integration: build a multi-country world, run the campaign,
// and verify that the paper's qualitative findings hold in miniature.
#include <gtest/gtest.h>

#include "measure/campaign.h"
#include "measure/groundtruth.h"
#include "measure/regression.h"
#include "stats/summary.h"
#include "world/world_model.h"

namespace dohperf::measure {
namespace {

struct IntegrationFixture : ::testing::Test {
  // A 16-country world spanning all income groups and regions, at a scale
  // that keeps the whole suite fast.
  static world::WorldModel& world() {
    static world::WorldModel instance = [] {
      world::WorldConfig config;
      config.seed = 20210401;
      config.client_scale = 0.5;
      config.only_countries = {"US", "DE", "GB", "JP", "SE", "PL",
                               "BR", "ZA", "TH", "MX", "UA", "KE",
                               "NG", "BD", "TZ", "ET"};
      return world::WorldModel(config);
    }();
    return instance;
  }

  static Dataset& dataset() {
    static Dataset data = [] {
      CampaignConfig config;
      config.atlas_measurements_per_country = 40;
      Campaign campaign(world(), config);
      return campaign.run();
    }();
    return data;
  }
};

TEST_F(IntegrationFixture, DohIsSlowerThanDo53AtTheMedian) {
  const double doh1 = stats::median(dataset().tdoh_values());
  const double do53 = stats::median(dataset().do53_values());
  EXPECT_GT(doh1, do53);
  // Paper: global multiplier ~1.84x at the first request.
  EXPECT_GT(doh1 / do53, 1.3);
  EXPECT_LT(doh1 / do53, 2.6);
}

TEST_F(IntegrationFixture, CloudflareIsFastestProvider) {
  const double cf = stats::median(dataset().tdoh_values("Cloudflare"));
  for (const char* other : {"Google", "NextDNS", "Quad9"}) {
    EXPECT_LT(cf, stats::median(dataset().tdoh_values(other))) << other;
  }
}

TEST_F(IntegrationFixture, ReuseDampensTheSlowdown) {
  const auto rows = regression_rows(dataset());
  ASSERT_FALSE(rows.empty());
  const auto med = multiplier_medians(rows);
  EXPECT_GT(med.m1, med.m10);
  EXPECT_GT(med.m10, 1.0);  // reuse helps but does not erase the cost
  EXPECT_GE(med.m100, med.m1000);
}

TEST_F(IntegrationFixture, SomeClientsSeeASpeedup) {
  const auto rows = regression_rows(dataset());
  const auto faster = std::count_if(
      rows.begin(), rows.end(),
      [](const RegressionRow& r) { return r.multiplier_1 < 1.0; });
  // Paper: 19.1% of clients see a DoH1 speedup; require a clear nonzero
  // minority here.
  EXPECT_GT(faster, 0);
  EXPECT_LT(static_cast<double>(faster), 0.5 * rows.size());
}

TEST_F(IntegrationFixture, LowInfrastructureCountriesSufferMore) {
  // Compare per-country DoH1 medians: Ethiopia/Tanzania (low infra) vs
  // Sweden/Germany (high infra).
  const auto doh = dataset().country_doh_medians("", 1);
  const double low = (doh.at("ET") + doh.at("TZ")) / 2.0;
  const double high = (doh.at("SE") + doh.at("DE")) / 2.0;
  EXPECT_GT(low, high * 1.5);
}

TEST_F(IntegrationFixture, LogisticModelFindsInfrastructureEffect) {
  const auto rows = regression_rows(dataset());
  const auto fit = fit_slowdown_logistic(rows, 1);
  // Slow-bandwidth clients must face elevated slowdown odds (paper 1.81x).
  EXPECT_GT(fit.term(kTermSlowBandwidth).odds_ratio, 1.2);
  EXPECT_LT(fit.term(kTermSlowBandwidth).p_value, 0.05);
}

TEST_F(IntegrationFixture, LinearModelShowsInfrastructureGradient) {
  const auto rows = regression_rows(dataset());
  const auto fit = fit_delta_linear(rows, 1);
  // Infrastructure reduces the delta. With only 16 countries the
  // bandwidth/AS covariates are strongly collinear, so the attribution
  // between them can wobble; the joint (scaled) effect must be clearly
  // negative and the AS term individually so.
  EXPECT_LT(fit.term(kTermNumAses).coef, 0.0);
  EXPECT_LT(fit.term(kTermBandwidth).scaled_coef +
                fit.term(kTermNumAses).scaled_coef,
            -50.0);
  // Distance to the serving PoP increases the delta.
  EXPECT_GT(fit.term(kTermResolverDistance).coef, 0.0);
}

TEST_F(IntegrationFixture, BrazilBenefitsFromDoh) {
  // The paper's showcase: Brazil saw a country-level DoH speedup.
  const auto doh10 = dataset().country_doh_medians("Cloudflare", 10);
  const auto do53 = dataset().country_do53_medians();
  ASSERT_TRUE(doh10.count("BR"));
  ASSERT_TRUE(do53.count("BR"));
  EXPECT_LT(doh10.at("BR"), do53.at("BR"));
}

TEST_F(IntegrationFixture, GroundTruthValidationHoldsInWorld) {
  GroundTruthLab lab(world());
  const auto v = lab.validate_doh("SE");
  EXPECT_LT(std::abs(v.tdoh_error_ms()), 25.0);
}

TEST_F(IntegrationFixture, EstimatesAreInternallyConsistent) {
  // DoH10 must sit between DoHR and DoH1 for every record.
  for (const auto& rec : dataset().doh()) {
    const double doh10 = rec.doh_n(10);
    EXPECT_LT(doh10, rec.tdoh_ms);
    EXPECT_GT(doh10, rec.tdohr_ms);
  }
}

TEST_F(IntegrationFixture, DeterministicAcrossRebuilds) {
  // The same seed must reproduce the same dataset exactly.
  world::WorldConfig config;
  config.seed = 515;
  config.client_scale = 0.3;
  config.only_countries = {"SE", "BR"};
  auto run_once = [&config] {
    world::WorldModel w(config);
    CampaignConfig cc;
    cc.atlas_measurements_per_country = 5;
    Campaign campaign(w, cc);
    return campaign.run();
  };
  const Dataset a = run_once();
  const Dataset b = run_once();
  ASSERT_EQ(a.doh().size(), b.doh().size());
  for (std::size_t i = 0; i < a.doh().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.doh()[i].tdoh_ms, b.doh()[i].tdoh_ms) << i;
    EXPECT_DOUBLE_EQ(a.doh()[i].tdohr_ms, b.doh()[i].tdohr_ms) << i;
  }
}

}  // namespace
}  // namespace dohperf::measure
