// Tests for the campaign orchestration and the Dataset aggregations.
#include <gtest/gtest.h>

#include <cmath>

#include "measure/campaign.h"
#include "measure/dataset.h"

namespace dohperf::measure {
namespace {

// ------------------------------------------------ dataset (hand-built)

DohRecord doh_record(Dataset& data, std::uint64_t exit_id,
                     const char* iso2, const char* provider, int run,
                     double tdoh, double tdohr) {
  DohRecord rec;
  rec.exit_id = exit_id;
  rec.iso2 = data.intern(iso2);
  rec.provider = data.intern(provider);
  rec.run = run;
  rec.tdoh_ms = tdoh;
  rec.tdohr_ms = tdohr;
  rec.pop_distance_miles = 100;
  rec.potential_improvement_miles = 10;
  return rec;
}

Dataset small_dataset() {
  Dataset data;
  for (std::uint64_t id : {1ull, 2ull, 3ull}) {
    ClientInfo info;
    info.exit_id = id;
    info.iso2 = id == 3 ? "BR" : "SE";
    info.nameserver_distance_miles = 4000;
    data.add_client(info);
  }
  data.add_doh(doh_record(data, 1, "SE", "Cloudflare", 0, 300, 200));
  data.add_doh(doh_record(data, 1, "SE", "Cloudflare", 1, 340, 220));
  data.add_doh(doh_record(data, 1, "SE", "Google", 0, 400, 280));
  data.add_doh(doh_record(data, 2, "SE", "Cloudflare", 0, 500, 330));
  data.add_doh(doh_record(data, 3, "BR", "Cloudflare", 0, 260, 180));

  data.add_do53(Do53Record{1, data.intern("SE"), 0, false, 240});
  data.add_do53(Do53Record{1, data.intern("SE"), 1, false, 260});
  data.add_do53(Do53Record{3, data.intern("BR"), 0, false, 400});
  data.add_do53(Do53Record{kAtlasExitId, data.intern("US"), 0, true, 50});
  return data;
}

TEST(DatasetTest, UniqueClientAndCountryCounts) {
  const Dataset data = small_dataset();
  EXPECT_EQ(data.unique_clients("Cloudflare"), 3u);
  EXPECT_EQ(data.unique_clients("Google"), 1u);
  EXPECT_EQ(data.unique_countries("Cloudflare"), 2u);
  EXPECT_EQ(data.do53_clients(), 2u);  // Atlas rows carry no client id
  EXPECT_EQ(data.do53_countries(), 3u);
}

TEST(DatasetTest, ValueExtraction) {
  const Dataset data = small_dataset();
  EXPECT_EQ(data.tdoh_values().size(), 5u);
  EXPECT_EQ(data.tdoh_values("Cloudflare").size(), 4u);
  EXPECT_EQ(data.do53_values("SE").size(), 2u);
  EXPECT_EQ(data.do53_values().size(), 4u);
}

TEST(DatasetTest, ClientProviderStatsJoinsMediansAndDo53) {
  const Dataset data = small_dataset();
  const auto stats = data.client_provider_stats();
  ASSERT_EQ(stats.size(), 4u);  // (1,CF), (1,G), (2,CF), (3,CF)

  const auto* one_cf = &*std::find_if(
      stats.begin(), stats.end(), [](const ClientProviderStat& s) {
        return s.exit_id == 1 && s.provider == "Cloudflare";
      });
  EXPECT_DOUBLE_EQ(one_cf->tdoh_ms, 320);   // median of 300, 340
  EXPECT_DOUBLE_EQ(one_cf->tdohr_ms, 210);  // median of 200, 220
  EXPECT_DOUBLE_EQ(one_cf->do53_ms, 250);   // median of 240, 260
  EXPECT_TRUE(one_cf->has_do53());

  const auto* two_cf = &*std::find_if(
      stats.begin(), stats.end(),
      [](const ClientProviderStat& s) { return s.exit_id == 2; });
  EXPECT_FALSE(two_cf->has_do53());  // client 2 has no Do53 rows
}

TEST(DatasetTest, DohNAlgebra) {
  DohRecord rec;
  rec.tdoh_ms = 400;
  rec.tdohr_ms = 200;
  EXPECT_DOUBLE_EQ(rec.doh_n(1), 400);
  EXPECT_DOUBLE_EQ(rec.doh_n(10), 220);
}

TEST(DatasetTest, CountryMedians) {
  const Dataset data = small_dataset();
  const auto do53 = data.country_do53_medians();
  EXPECT_DOUBLE_EQ(do53.at("SE"), 250);
  EXPECT_DOUBLE_EQ(do53.at("US"), 50);
  const auto doh_cf = data.country_doh_medians("Cloudflare", 1);
  EXPECT_DOUBLE_EQ(doh_cf.at("BR"), 260);
  EXPECT_DOUBLE_EQ(doh_cf.at("SE"), 340);  // median of 300, 340, 500
}

TEST(DatasetTest, AnalysisCountriesRequireAllProviders) {
  Dataset data;
  for (int i = 0; i < 12; ++i) {
    data.add_doh(doh_record(data, 100 + i, "SE", "Cloudflare", 0, 300, 200));
    data.add_doh(doh_record(data, 100 + i, "SE", "Google", 0, 300, 200));
  }
  // SE has 12 clients for Cloudflare and Google but none for a third
  // provider -> once NextDNS rows appear anywhere, SE must be excluded.
  EXPECT_EQ(data.analysis_countries().size(), 1u);
  data.add_doh(doh_record(data, 500, "BR", "NextDNS", 0, 300, 200));
  EXPECT_TRUE(data.analysis_countries().empty());
}

TEST(DatasetTest, ClientsPerCountry) {
  const Dataset data = small_dataset();
  const auto counts = data.clients_per_country();
  EXPECT_EQ(counts.at("SE"), 2u);
  EXPECT_EQ(counts.at("BR"), 1u);
}

// ------------------------------------------------------ campaign (mini)

struct CampaignFixture : ::testing::Test {
  static world::WorldModel& world() {
    static world::WorldModel instance = [] {
      world::WorldConfig config;
      config.seed = 33;
      config.client_scale = 0.25;
      config.only_countries = {"SE", "BR", "ZA", "PL", "US", "JP", "TH"};
      config.mislabel_rate = 0.05;  // exaggerated for test sharpness
      return world::WorldModel(config);
    }();
    return instance;
  }

  static Dataset& dataset() {
    static Dataset data = [] {
      CampaignConfig config;
      config.atlas_measurements_per_country = 25;
      Campaign campaign(world(), config);
      return campaign.run();
    }();
    return data;
  }
};

TEST_F(CampaignFixture, MeasuresEveryRetainedClientTwice) {
  const Dataset& data = dataset();
  EXPECT_GT(data.clients().size(), 50u);
  // Each retained client produces Do53 rows unless in a Super Proxy
  // country; Cloudflare rows exist for ~every client (modulo failures).
  EXPECT_GE(data.unique_clients("Cloudflare"), data.clients().size() * 9 / 10);
}

TEST_F(CampaignFixture, DiscardsMismatchedClients) {
  EXPECT_GT(dataset().discarded_mismatch, 0u);
}

TEST_F(CampaignFixture, AllFourProvidersCovered) {
  for (const char* provider : {"Cloudflare", "Google", "NextDNS", "Quad9"}) {
    EXPECT_GT(dataset().unique_clients(provider), 0u) << provider;
  }
}

TEST_F(CampaignFixture, SuperProxyCountriesHaveOnlyAtlasDo53) {
  for (const auto& rec : dataset().do53()) {
    const std::string_view iso2 = dataset().name(rec.iso2);
    if (iso2 == "US" || iso2 == "JP") {
      EXPECT_TRUE(rec.via_atlas) << iso2;
      EXPECT_EQ(rec.exit_id, kAtlasExitId);
    } else {
      EXPECT_FALSE(rec.via_atlas) << iso2;
    }
  }
}

TEST_F(CampaignFixture, AtlasRemedyCoversSuperProxyCountries) {
  std::size_t us_rows = 0;
  for (const auto& rec : dataset().do53()) {
    us_rows += dataset().name(rec.iso2) == "US";
  }
  EXPECT_GE(us_rows, 20u);
}

TEST_F(CampaignFixture, MeasurementsArePositiveAndPlausible) {
  for (const auto& rec : dataset().doh()) {
    EXPECT_GT(rec.tdoh_ms, 0.0);
    EXPECT_GT(rec.tdohr_ms, 0.0);
    EXPECT_LT(rec.tdoh_ms, 10000.0);
    EXPECT_GE(rec.pop_distance_miles, 0.0);
    EXPECT_GE(rec.potential_improvement_miles, -1.0);
  }
  for (const auto& rec : dataset().do53()) {
    EXPECT_GT(rec.do53_ms, 0.0);
    EXPECT_LT(rec.do53_ms, 10000.0);
  }
}

TEST_F(CampaignFixture, RunsAreLabelled) {
  bool saw_run0 = false, saw_run1 = false;
  for (const auto& rec : dataset().doh()) {
    saw_run0 |= rec.run == 0;
    saw_run1 |= rec.run == 1;
  }
  EXPECT_TRUE(saw_run0);
  EXPECT_TRUE(saw_run1);
}

TEST_F(CampaignFixture, ClientInfoHasNameserverDistance) {
  for (const auto& [id, info] : dataset().clients()) {
    EXPECT_GT(info.nameserver_distance_miles, 0.0);
    EXPECT_LT(info.nameserver_distance_miles, 13000.0);
  }
}

TEST_F(CampaignFixture, DohRIsBelowDoh1PerRecord) {
  for (const auto& rec : dataset().doh()) {
    EXPECT_LT(rec.tdohr_ms, rec.tdoh_ms);
  }
}

}  // namespace
}  // namespace dohperf::measure
