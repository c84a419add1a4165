// Tests for the world model: country profiles, site synthesis, and the
// assembled ecosystem.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "measure/flows.h"
#include "measure/groundtruth.h"
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

// --- Replicas -----------------------------------------------------------
// Every campaign shard and the anomaly replay run on make_replica(): the
// world's servers rebuilt from their recorded specs.

void expect_same_resolver(const resolver::RecursiveResolver& copy,
                          const resolver::RecursiveResolver& original) {
  EXPECT_NE(&copy, &original) << original.name();
  EXPECT_EQ(copy.name(), original.name());
  EXPECT_EQ(copy.address(), original.address()) << original.name();
  EXPECT_EQ(copy.site(), original.site()) << original.name();
  EXPECT_EQ(copy.processing_delay(), original.processing_delay())
      << original.name();
  EXPECT_EQ(copy.ecs_policy(), original.ecs_policy()) << original.name();
}

TEST_F(WorldFixture, ReplicaServersEqualTheWorlds) {
  WorldModel& w = world();
  const std::unique_ptr<SimContext> replica = w.make_replica();

  resolver::AuthoritativeServer& authority = w.authority();
  resolver::AuthoritativeServer& authority_copy = replica->authority();
  EXPECT_NE(&authority_copy, &authority);
  EXPECT_EQ(authority_copy.zone().origin(), authority.zone().origin());
  EXPECT_EQ(authority_copy.zone().soa(), authority.zone().soa());
  EXPECT_EQ(authority_copy.zone().record_count(),
            authority.zone().record_count());
  for (const dns::DomainName& name :
       {w.origin(), w.origin().with_subdomain("ns1"),
        w.origin().with_subdomain("probe")}) {
    EXPECT_EQ(authority_copy.zone().lookup(name, dns::RecordType::kA).answers,
              authority.zone().lookup(name, dns::RecordType::kA).answers)
        << name.to_string();
  }
  EXPECT_EQ(authority_copy.site(), authority.site());
  EXPECT_EQ(authority_copy.processing_delay(), authority.processing_delay());

  for (std::size_t p = 0; p < w.providers().size(); ++p) {
    for (std::size_t i = 0; i < w.providers()[p].pops().size(); ++i) {
      resolver::DohServer& doh = w.doh_server(p, i);
      resolver::DohServer& doh_copy = replica->doh_server(p, i);
      EXPECT_NE(&doh_copy, &doh);
      EXPECT_EQ(doh_copy.hostname(), doh.hostname());
      EXPECT_EQ(doh_copy.site(), doh.site()) << doh.resolver().name();
      expect_same_resolver(doh_copy.resolver(), doh.resolver());
    }
  }

  std::size_t resolvers = 0;
  for (const std::string& iso2 : w.countries()) {
    for (resolver::RecursiveResolver* r : w.isp_resolvers(iso2)) {
      ++resolvers;
      resolver::RecursiveResolver* copy = replica->local(r);
      expect_same_resolver(*copy, *r);
      for (const anycast::Provider& provider : w.providers()) {
        const auto host =
            dns::DomainName::parse(provider.config().doh_hostname);
        const auto warm =
            r->cache().lookup(w.sim().now(), host, dns::RecordType::kA);
        ASSERT_TRUE(warm.has_value()) << r->name() << " " << provider.name();
        EXPECT_EQ(copy->cache().lookup(replica->sim().now(), host,
                                       dns::RecordType::kA),
                  warm)
            << r->name() << " " << provider.name();
      }
    }
  }
  EXPECT_GT(resolvers, w.countries().size());
}

TEST_F(WorldFixture, ReplicaLocalMapsEveryDefaultResolver) {
  WorldModel& w = world();
  const std::unique_ptr<SimContext> replica = w.make_replica();
  const auto expect_mapped = [&](resolver::RecursiveResolver* original) {
    ASSERT_NE(original, nullptr);
    const resolver::RecursiveResolver* copy = replica->local(original);
    EXPECT_NE(copy, original) << original->name();
    EXPECT_EQ(copy->name(), original->name());
  };
  std::size_t exits = 0;
  for (const std::string& iso2 : w.countries()) {
    for (const std::uint64_t id : w.brightdata().exits_in(iso2)) {
      expect_mapped(w.brightdata().find(id)->default_resolver);
      ++exits;
    }
  }
  EXPECT_EQ(exits, w.exit_count());
  ASSERT_FALSE(w.atlas().probes().empty());
  for (const proxy::AtlasProbe& probe : w.atlas().probes()) {
    expect_mapped(probe.default_resolver);
  }
}

TEST(ReplicaTest, FlowsOnAFreshReplicaMatchTheWorld) {
  WorldConfig config;
  config.seed = 5;
  config.client_scale = 0.1;
  config.only_countries = {"SE", "BR"};
  WorldModel w(config);
  const std::unique_ptr<SimContext> replica = w.make_replica();
  const proxy::ExitNode* exit =
      w.brightdata().find(w.brightdata().exits_in("BR").front());
  const dns::DomainName probe = w.origin().with_subdomain("replica-probe");

  // The world's flows draw from its RNG; the replica's from a copy taken
  // before them, so both runs start from equal seeds.
  netsim::Rng rng = w.rng();
  const double do53 = w.run_flow([&](netsim::NetCtx& net) {
    return measure::do53_direct(net, exit->site, exit->default_resolver,
                                probe);
  });
  const measure::DirectObservation doh =
      w.run_flow([&](netsim::NetCtx& net) {
        return measure::doh_direct(net, exit->site, exit->default_resolver,
                                   w.doh_server(0, 0),
                                   transport::TlsVersion::kTls13, w.origin());
      });

  netsim::NetCtx net{replica->sim(), w.latency(), rng};
  resolver::RecursiveResolver* local = replica->local(exit->default_resolver);
  netsim::Task<double> do53_task =
      measure::do53_direct(net, exit->site, local, probe);
  replica->sim().run();
  netsim::Task<measure::DirectObservation> doh_task = measure::doh_direct(
      net, exit->site, local, replica->doh_server(0, 0),
      transport::TlsVersion::kTls13, w.origin());
  replica->sim().run();

  ASSERT_TRUE(doh.ok);
  EXPECT_GT(do53, 0.0);
  EXPECT_EQ(do53_task.result(), do53);
  const measure::DirectObservation& copy = doh_task.result();
  EXPECT_EQ(copy.ok, doh.ok);
  EXPECT_EQ(copy.http_status, doh.http_status);
  EXPECT_EQ(copy.dns_ms, doh.dns_ms);
  EXPECT_EQ(copy.connect_ms, doh.connect_ms);
  EXPECT_EQ(copy.tls_ms, doh.tls_ms);
  EXPECT_EQ(copy.query_ms, doh.query_ms);
  ASSERT_EQ(copy.has_reuse(), doh.has_reuse());
  if (doh.has_reuse()) {
    EXPECT_EQ(copy.reuse_ms, doh.reuse_ms);
  }
  EXPECT_EQ(replica->sim().now(), w.sim().now());
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

// Anycast routes a client by where it really is, decided once at
// enrollment: every exit, the mislabelled ones included, and the ground-
// truth lab's planted node carry their true country's region.
TEST(RoutingRegionTest, ExitsCarryTheirTrueCountrysRegion) {
  WorldConfig config;
  config.seed = 11;
  config.client_scale = 0.3;
  config.mislabel_rate = 0.20;  // exaggerated so that mislabels are common
  config.only_countries = {"SE", "DE", "BR", "US", "JP", "ZA", "IN", "AU"};
  WorldModel w(config);
  std::size_t cross_region = 0;
  for (const std::string& iso2 : w.countries()) {
    for (const std::uint64_t id : w.brightdata().exits_in(iso2)) {
      const proxy::ExitNode* exit = w.brightdata().find(id);
      const geo::Region truth = country(exit->true_iso2.c_str()).region;
      EXPECT_EQ(exit->anycast_region, truth) << "exit " << id;
      cross_region += country(exit->advertised_iso2.c_str()).region != truth;
    }
  }
  EXPECT_GT(cross_region, 0u) << "no mislabel crosses a region";

  measure::GroundTruthLab lab(w);
  for (const std::string& iso2 : w.countries()) {
    EXPECT_EQ(lab.make_ec2_node(iso2).anycast_region,
              country(iso2.c_str()).region)
        << iso2;
  }
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
