// Tests for the world model: country profiles, site synthesis, and the
// assembled ecosystem.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "scenario/spec.h"
#include "world/sites.h"
#include "world/world_model.h"

namespace dohperf::world {
namespace {

const geo::Country& country(const char* iso2) {
  const geo::Country* c = geo::find_country(iso2);
  EXPECT_NE(c, nullptr) << iso2;
  return *c;
}

TEST(ProfileTest, FasterBandwidthMeansShorterLastMile) {
  const auto us = profile_for(country("US"));
  const auto td = profile_for(country("TD"));  // Chad
  EXPECT_LT(us.lastmile_median_ms, td.lastmile_median_ms);
}

TEST(ProfileTest, MoreAsesMeansLessInflation) {
  const auto us = profile_for(country("US"));
  const auto td = profile_for(country("TD"));
  EXPECT_LT(us.route_inflation, td.route_inflation);
  EXPECT_GE(us.route_inflation, 1.0);
}

TEST(ProfileTest, LowInfraIsNoisier) {
  EXPECT_LT(profile_for(country("US")).jitter_sigma,
            profile_for(country("TD")).jitter_sigma);
}

TEST(ProfileTest, UncoupledProfilesAreUniform) {
  const auto us = profile_for(country("US"), /*couple_infra=*/false);
  const auto td = profile_for(country("TD"), /*couple_infra=*/false);
  EXPECT_DOUBLE_EQ(us.lastmile_median_ms, td.lastmile_median_ms);
  EXPECT_DOUBLE_EQ(us.route_inflation, td.route_inflation);
  EXPECT_DOUBLE_EQ(us.isp_transit_penalty, td.isp_transit_penalty);
}

TEST(ProfileTest, ShowcaseCountriesHaveBadIspTransit) {
  // Brazil and Indonesia are pinned as DoH-benefiting countries.
  EXPECT_GT(profile_for(country("BR")).isp_transit_penalty, 2.0);
  EXPECT_GT(profile_for(country("ID")).isp_transit_penalty, 1.5);
}

TEST(ProfileTest, PenaltyIsGatedByBandwidth) {
  // Low-bandwidth countries must not carry large ISP penalties (the
  // paper's DoH winners are in well-provisioned countries).
  for (const geo::Country& c : geo::world_table()) {
    if (c.bandwidth_mbps < 5.0) {
      EXPECT_LT(profile_for(c).isp_transit_penalty, 1.15) << c.iso2;
    }
  }
}

TEST(SitesTest, ClientSitesScatterAroundCentroid) {
  netsim::Rng rng(1);
  const auto& se = country("SE");
  for (int i = 0; i < 50; ++i) {
    const auto site = client_site(se, rng);
    EXPECT_TRUE(site.position.is_valid());
    EXPECT_LT(geo::distance_km(site.position, se.centroid), 650.0);
    EXPECT_GT(site.lastmile_ms, 0.0);
    EXPECT_GE(site.route_inflation, 1.0);
  }
}

TEST(SitesTest, ResolverSitesHaveDatacenterAccess) {
  netsim::Rng rng(2);
  const auto site = isp_resolver_site(country("DE"), rng);
  EXPECT_LT(site.lastmile_ms, 3.0);
}

TEST(SitesTest, ReachableClientsBounds) {
  netsim::Rng rng(3);
  int total = 0;
  for (const geo::Country& c : geo::world_table()) {
    const int n = reachable_clients(c, rng);
    EXPECT_GE(n, 0) << c.iso2;
    EXPECT_LE(n, 282) << c.iso2;  // the paper's per-country maximum
    total += n;
  }
  // Paper total: 22,052 unique clients.
  EXPECT_GT(total, 15000);
  EXPECT_LT(total, 30000);
}

TEST(SitesTest, ChinaAndNorthKoreaUnreachable) {
  netsim::Rng rng(4);
  EXPECT_EQ(reachable_clients(country("CN"), rng), 0);
  EXPECT_EQ(reachable_clients(country("KP"), rng), 0);
}

TEST(SitesTest, ResolverCountScalesWithAses) {
  EXPECT_EQ(isp_resolver_count(country("TD")), 1);
  EXPECT_EQ(isp_resolver_count(country("US")), 4);
}

struct WorldFixture : ::testing::Test {
  static WorldModel& world() {
    static WorldModel instance = [] {
      WorldConfig config;
      config.seed = 7;
      config.client_scale = 0.05;
      return WorldModel(config);
    }();
    return instance;
  }
};

TEST_F(WorldFixture, BuildsAllCountries) {
  EXPECT_EQ(world().countries().size(), geo::world_table().size());
}

TEST_F(WorldFixture, RestrictedWorldBuildsSubset) {
  WorldConfig config;
  config.seed = 9;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "BR", "JP"};
  WorldModel small(config);
  EXPECT_EQ(small.countries().size(), 3u);
  EXPECT_FALSE(small.isp_resolvers("SE").empty());
  EXPECT_TRUE(small.isp_resolvers("FR").empty());
}

TEST_F(WorldFixture, ProvidersHaveDohServersPerPop) {
  auto providers = world().providers();
  ASSERT_EQ(providers.size(), 4u);
  for (std::size_t p = 0; p < providers.size(); ++p) {
    // First and last PoPs must exist and carry the provider hostname.
    auto& first = world().doh_server(p, 0);
    EXPECT_EQ(first.hostname(), providers[p].config().doh_hostname);
    auto& last = world().doh_server(p, providers[p].pops().size() - 1);
    EXPECT_TRUE(last.site().position.is_valid());
  }
}

TEST_F(WorldFixture, BootstrapNamesArePrewarmed) {
  // Every ISP resolver must be able to answer the DoH hostnames from
  // cache at time zero.
  const auto resolvers = world().isp_resolvers("SE");
  ASSERT_FALSE(resolvers.empty());
  for (auto* resolver : resolvers) {
    for (const auto& provider : world().providers()) {
      const auto hit = resolver->cache().lookup(
          world().sim().now(),
          dns::DomainName::parse(provider.config().doh_hostname),
          dns::RecordType::kA);
      EXPECT_TRUE(hit.has_value()) << provider.name();
    }
  }
}

TEST_F(WorldFixture, ExitNodesAreRegisteredWithMaxmind) {
  auto& bd = world().brightdata();
  EXPECT_GT(bd.exit_count(), 100u);
  for (const std::uint64_t id : bd.exits_in("BR")) {
    const proxy::ExitNode* exit = bd.find(id);
    ASSERT_NE(exit, nullptr);
    EXPECT_NE(exit->default_resolver, nullptr);
    EXPECT_TRUE(world().maxmind().lookup(exit->prefix).has_value());
  }
}

TEST_F(WorldFixture, MislabeledNodesExistAtConfiguredRate) {
  WorldConfig config;
  config.seed = 11;
  config.client_scale = 0.4;
  config.mislabel_rate = 0.20;  // exaggerated to make the test sharp
  WorldModel noisy(config);
  std::size_t mismatched = 0, total = 0;
  for (const std::string& iso2 : noisy.countries()) {
    for (const std::uint64_t id : noisy.brightdata().exits_in(iso2)) {
      const proxy::ExitNode* exit = noisy.brightdata().find(id);
      ++total;
      mismatched += exit->true_iso2 != exit->advertised_iso2;
    }
  }
  ASSERT_GT(total, 1000u);
  EXPECT_NEAR(static_cast<double>(mismatched) / total, 0.20, 0.05);
}

TEST_F(WorldFixture, AtlasCoversSuperProxyCountries) {
  for (const auto iso2 : proxy::kSuperProxyCountries) {
    EXPECT_TRUE(world().atlas().has_probes_in(std::string(iso2))) << iso2;
  }
}

TEST_F(WorldFixture, AuthorityServesStudyZone) {
  const auto query = dns::Message::make_query(
      1, world().origin().with_subdomain("probe"));
  const auto resp = world().authority().handle(query, 42);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(resp.answers.size(), 1u);
}

TEST_F(WorldFixture, PopBackendInflationTracksHostCountry) {
  // A Quad9 PoP hosted in a low-infrastructure country must have higher
  // backend inflation than one hosted in a hub.
  auto providers = world().providers();
  const auto& quad9 = providers[3];
  double africa_inflation = 0.0, europe_inflation = 0.0;
  for (std::size_t i = 0; i < quad9.pops().size(); ++i) {
    const auto& pop = quad9.pops()[i];
    const auto& backend = world().doh_server(3, i).resolver().site();
    if (pop.country_iso2 == "TD" || pop.country_iso2 == "NE") {
      africa_inflation = std::max(africa_inflation,
                                  backend.route_inflation);
    }
    if (pop.country_iso2 == "DE" || pop.country_iso2 == "NL") {
      europe_inflation = std::max(europe_inflation,
                                  backend.route_inflation);
    }
  }
  if (africa_inflation > 0 && europe_inflation > 0) {
    EXPECT_GT(africa_inflation, europe_inflation);
  }
}

// The non-default values bench/ablations sweeps, set the way a spec's
// [sweep] cell sets them. They replace the old named world presets.
const std::pair<const char*, const char*> kAblationSettings[] = {
    {"world.couple_infra", "false"},
    {"world.perfect_anycast", "true"},
    {"world.tls_version", "\"tls12\""},
    {"world.authority_city", "\"Frankfurt\""},
    {"world.authority_city", "\"Singapore\""}};

scenario::CampaignSpec small_spec() {
  scenario::CampaignSpec small;
  small.world.client_scale = 0.02;
  small.world.only_countries = {"SE"};
  return small;
}

/// The config of a small world built with `key` set to `value`.
WorldConfig built_with(const char* key, const char* value) {
  scenario::CampaignSpec spec = small_spec();
  std::string error;
  EXPECT_TRUE(scenario::set_key(spec, key, value, nullptr, &error)) << error;
  return WorldModel(spec.world).config();
}

TEST(ScenariosTest, AllPresetsResolveAndBuild) {
  const scenario::CampaignSpec small = small_spec();
  for (const auto& [key, value] : kAblationSettings) {
    scenario::CampaignSpec spec = small;
    std::string error;
    ASSERT_TRUE(scenario::set_key(spec, key, value, nullptr, &error)) << error;
    EXPECT_NE(scenario::spec_hash(spec), scenario::spec_hash(small)) << key;
    const WorldModel world(spec.world);
    EXPECT_GT(world.exit_count(), 0u) << key << " = " << value;
  }
  scenario::CampaignSpec spec = small;
  std::string error;
  EXPECT_FALSE(
      scenario::set_key(spec, "world.no_such_switch", "true", nullptr, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenariosTest, PresetsCarryTheirSwitch) {
  EXPECT_FALSE(built_with("world.couple_infra", "false").couple_infra);
  EXPECT_TRUE(built_with("world.perfect_anycast", "true").perfect_anycast);
  EXPECT_EQ(built_with("world.tls_version", "\"tls12\"").tls_version,
            transport::TlsVersion::kTls12);
  EXPECT_EQ(built_with("world.authority_city", "\"Frankfurt\"").authority_city,
            "Frankfurt");
  EXPECT_EQ(built_with("world.authority_city", "\"Singapore\"").authority_city,
            "Singapore");
}

}  // namespace
}  // namespace dohperf::world
