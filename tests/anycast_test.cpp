// Tests for PoP catalogs, anycast routing, and provider profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "anycast/catalog.h"
#include "anycast/provider.h"
#include "anycast/routing.h"
#include "geo/cities.h"
#include "proxy/brightdata.h"

namespace dohperf::anycast {
namespace {

TEST(CatalogTest, SizesMatchPaperObservations) {
  EXPECT_EQ(cloudflare_pops().size(), kCloudflarePopCount);  // 146
  EXPECT_EQ(google_pops().size(), kGooglePopCount);          // 26
  EXPECT_EQ(nextdns_pops().size(), kNextDnsPopCount);        // 107
  EXPECT_EQ(quad9_pops().size(), kQuad9PopCount);            // 152
}

TEST(CatalogTest, GoogleHasNoAfricanPop) {
  for (const Pop& pop : google_pops()) {
    EXPECT_NE(pop.region, geo::Region::kAfrica) << pop.city;
  }
}

TEST(CatalogTest, CloudflareServesSenegal) {
  const auto pops = cloudflare_pops();
  EXPECT_TRUE(std::any_of(pops.begin(), pops.end(), [](const Pop& p) {
    return p.country_iso2 == "SN";
  }));
}

TEST(CatalogTest, Quad9HasDensestAfricanFootprint) {
  auto count_africa = [](const std::vector<Pop>& pops) {
    return std::count_if(pops.begin(), pops.end(), [](const Pop& p) {
      return p.region == geo::Region::kAfrica;
    });
  };
  const auto quad9 = count_africa(quad9_pops());
  EXPECT_GT(quad9, count_africa(cloudflare_pops()));
  EXPECT_GT(quad9, count_africa(nextdns_pops()));
  EXPECT_GT(quad9, count_africa(google_pops()));
}

TEST(CatalogTest, NoProviderHostsInChina) {
  for (const auto& pops : {cloudflare_pops(), google_pops(), nextdns_pops(),
                           quad9_pops()}) {
    for (const Pop& pop : pops) {
      EXPECT_NE(pop.country_iso2, "CN") << pop.city;
    }
  }
}

TEST(CatalogTest, NoDuplicateCitiesWithinCatalog) {
  for (const auto& pops : {cloudflare_pops(), google_pops(), nextdns_pops(),
                           quad9_pops()}) {
    std::set<std::string> cities;
    for (const Pop& pop : pops) {
      EXPECT_TRUE(cities.insert(pop.city).second) << "dup " << pop.city;
    }
  }
}

TEST(CatalogTest, PopsForByName) {
  EXPECT_EQ(pops_for("Cloudflare").size(), kCloudflarePopCount);
  EXPECT_EQ(pops_for("Quad9").size(), kQuad9PopCount);
  EXPECT_THROW(pops_for("OpenDNS"), std::invalid_argument);
}

TEST(PopTest, MakePopValidatesCountry) {
  const geo::City bogus{"Nowhere", "ZZ", {0, 0}};
  EXPECT_THROW(make_pop(bogus), std::invalid_argument);
}

TEST(PopTest, NearestIndexFindsGeographicOptimum) {
  const auto pops = google_pops();
  // A client in Manhattan should map to the New York PoP.
  const auto idx = nearest_pops(pops, {40.75, -73.99}, 1).front().index;
  EXPECT_EQ(pops[idx].city, "New York");
}

TEST(PopTest, PopsByDistanceIsSorted) {
  const auto pops = cloudflare_pops();
  const geo::LatLon client{48.86, 2.35};
  std::vector<std::size_t> order;
  for (const RankedPop& r : nearest_pops(pops, client, pops.size())) {
    order.push_back(r.index);
  }
  ASSERT_EQ(order.size(), pops.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(geo::distance_km(client, pops[order[i - 1]].position),
              geo::distance_km(client, pops[order[i]].position));
  }
}

// The catalogs nearest_pops serves: the four providers and the Super
// Proxy metros.
std::vector<std::vector<Pop>> all_catalogs() {
  const proxy::BrightDataNetwork brightdata;
  const auto sp = brightdata.super_proxy_pops();
  return {cloudflare_pops(), google_pops(), nextdns_pops(), quad9_pops(),
          std::vector<Pop>(sp.begin(), sp.end())};
}

// nearest_pops' lower-index tie rule only reproduces a full distance
// sort if no two PoPs of a catalog share a position.
TEST(PopTest, CatalogPositionsAreDistinct) {
  for (const auto& pops : all_catalogs()) {
    std::set<std::pair<double, double>> seen;
    for (const Pop& pop : pops) {
      EXPECT_TRUE(seen.insert({pop.position.lat, pop.position.lon}).second)
          << "shared position " << pop.city;
    }
  }
}

// Exactness of the chord-pruned selection: for every catalog and query
// point, the result is bit-for-bit the head of a full distance_km sort
// (nearest first, ties to the lower index), and the allocation-free
// nearest_pop is its first element.
TEST(PopTest, NearestPopsMatchesFullDistanceSort) {
  const auto catalogs = all_catalogs();

  std::vector<geo::LatLon> points;
  for (const geo::City& city : geo::city_table()) {
    points.push_back(city.position);
  }
  netsim::Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    points.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  }
  for (const double lon : {-180.0, -45.0, 0.0, 90.0, 180.0}) {
    points.push_back({90.0, lon});
    points.push_back({-90.0, lon});
  }
  for (const double lat : {-60.0, -1e-9, 0.0, 35.5, 89.999999}) {
    for (const double lon : {-180.0, -179.999999, 179.999999, 180.0}) {
      points.push_back({lat, lon});
    }
  }
  for (const auto& pops : catalogs) {
    for (const Pop& pop : pops) {
      const geo::LatLon at = pop.position;
      points.push_back(at);
      points.push_back(
          {-at.lat, at.lon > 0.0 ? at.lon - 180.0 : at.lon + 180.0});
    }
  }

  for (const auto& pops : catalogs) {
    for (const geo::LatLon& p : points) {
      std::vector<RankedPop> full;
      for (std::size_t i = 0; i < pops.size(); ++i) {
        full.push_back({i, geo::distance_km(p, pops[i].position)});
      }
      std::stable_sort(full.begin(), full.end(),
                       [](const RankedPop& a, const RankedPop& b) {
                         return a.km < b.km;
                       });
      for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{5},
                                  pops.size()}) {
        const auto head = static_cast<std::ptrdiff_t>(std::min(n, full.size()));
        const std::vector<RankedPop> want(full.begin(), full.begin() + head);
        ASSERT_EQ(nearest_pops(pops, p, n), want)
            << "catalog of " << pops.size() << " at " << p << " n=" << n;
      }
      ASSERT_EQ(nearest_pop(pops, p), nearest_pops(pops, p, 1).front())
          << "catalog of " << pops.size() << " at " << p;
    }
  }
}

TEST(PopTest, NearestPopsOfEmptyRequestIsEmpty) {
  const auto pops = google_pops();
  EXPECT_TRUE(nearest_pops(pops, {0.0, 0.0}, 0).empty());
  EXPECT_TRUE(nearest_pops(std::span<const Pop>(), {0.0, 0.0}, 3).empty());
}

TEST(RouterTest, PureNearestPolicyIsOptimal) {
  const auto pops = cloudflare_pops();
  RoutingParams params;
  params.p_nearest = 1.0;
  AnycastRouter router(pops, params);
  netsim::Rng rng(5);
  for (const geo::LatLon client :
       {geo::LatLon{51.5, -0.1}, geo::LatLon{-33.9, 151.2},
        geo::LatLon{1.3, 103.8}}) {
    EXPECT_EQ(router.select(client, geo::Region::kEurope, rng),
              router.nearest(client));
  }
}

TEST(RouterTest, SelectionFrequenciesMatchMixture) {
  const auto pops = cloudflare_pops();
  RoutingParams params;
  params.p_nearest = 0.6;
  params.p_neighborhood = 0.3;
  params.neighborhood_k = 2;
  params.p_region_hub = 0.05;
  AnycastRouter router(pops, params);

  const geo::LatLon client{40.71, -74.01};
  const auto nearest = router.nearest(client);
  netsim::Rng rng(11);
  int nearest_hits = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (router.select(client, geo::Region::kNorthAmerica, rng) == nearest) {
      ++nearest_hits;
    }
  }
  // Nearest arrives via p_nearest plus a sliver of global randomness.
  EXPECT_NEAR(nearest_hits / static_cast<double>(trials), 0.6, 0.03);
}

TEST(RouterTest, NeighborhoodExcludesOptimum) {
  const auto pops = google_pops();
  RoutingParams params;
  params.p_nearest = 0.0;
  params.p_neighborhood = 1.0;
  params.neighborhood_k = 2;
  AnycastRouter router(pops, params);
  const geo::LatLon client{40.75, -73.99};
  const auto nearest = router.nearest(client);
  netsim::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(router.select(client, geo::Region::kNorthAmerica, rng),
              nearest);
  }
}

TEST(RouterTest, SelectionAlwaysInCatalog) {
  const auto pops = quad9_pops();
  RoutingParams params;
  params.p_nearest = 0.25;
  params.p_neighborhood = 0.25;
  params.p_region_hub = 0.25;
  AnycastRouter router(pops, params);
  netsim::Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto idx = router.select({10.0 * (i % 18 - 9), 20.0 * (i % 17 - 8)},
                                   geo::Region::kAfrica, rng);
    EXPECT_LT(idx, pops.size());
  }
}

TEST(RouterTest, RegionHubIsStable) {
  const auto pops = quad9_pops();
  RoutingParams params;
  AnycastRouter router(pops, params);
  const auto hub1 = router.region_hub(geo::Region::kAfrica);
  const auto hub2 = router.region_hub(geo::Region::kAfrica);
  EXPECT_EQ(hub1, hub2);
  EXPECT_LT(hub1, pops.size());
}

TEST(RouterTest, RegionCentroidIsPlausible) {
  const auto europe = region_centroid(geo::Region::kEurope);
  EXPECT_GT(europe.lat, 35.0);
  EXPECT_LT(europe.lat, 65.0);
  EXPECT_GT(europe.lon, -15.0);
  EXPECT_LT(europe.lon, 45.0);
}

TEST(ProviderTest, StudiedProvidersInPaperOrder) {
  const auto providers = studied_providers();
  ASSERT_EQ(providers.size(), 4u);
  EXPECT_EQ(providers[0].name(), "Cloudflare");
  EXPECT_EQ(providers[1].name(), "Google");
  EXPECT_EQ(providers[2].name(), "NextDNS");
  EXPECT_EQ(providers[3].name(), "Quad9");
}

TEST(ProviderTest, RoutingParamsAreValidMixtures) {
  for (const auto& provider : studied_providers()) {
    const RoutingParams& p = provider.config().routing;
    EXPECT_GE(p.p_nearest, 0.0);
    EXPECT_GE(p.p_neighborhood, 0.0);
    EXPECT_GE(p.p_region_hub, 0.0);
    EXPECT_GE(p.p_global(), -1e-12) << provider.name();
  }
}

TEST(ProviderTest, FrontendSiteUsesAccessFactor) {
  const auto providers = studied_providers();
  const Provider& cf = providers[0];
  const double host_inflation = 3.0;
  const auto frontend = cf.frontend_site(0, host_inflation);
  const auto backend = cf.backend_site(0, host_inflation);
  EXPECT_EQ(frontend.position, backend.position);
  EXPECT_LT(frontend.route_inflation, backend.route_inflation);
  EXPECT_GE(frontend.route_inflation, cf.config().access_floor);
}

TEST(ProviderTest, Quad9RoutesFewestClientsToNearest) {
  // The paper: only 21% of Quad9 clients reach the closest PoP.
  const auto providers = studied_providers();
  netsim::Rng rng(23);
  std::map<std::string, double> nearest_fraction;
  for (const auto& provider : providers) {
    int at_nearest = 0;
    const int trials = 2000;
    netsim::Rng prov_rng = rng.split(provider.name());
    for (int i = 0; i < trials; ++i) {
      const geo::LatLon client{prov_rng.uniform(-50.0, 60.0),
                               prov_rng.uniform(-120.0, 140.0)};
      const auto selected =
          provider.route(client, geo::Region::kEurope, prov_rng);
      at_nearest += selected == provider.nearest(client);
    }
    nearest_fraction[provider.name()] =
        at_nearest / static_cast<double>(trials);
  }
  EXPECT_LT(nearest_fraction["Quad9"], 0.35);
  EXPECT_GT(nearest_fraction["NextDNS"], 0.8);
  EXPECT_LT(nearest_fraction["Quad9"], nearest_fraction["Cloudflare"]);
}

}  // namespace
}  // namespace dohperf::anycast
