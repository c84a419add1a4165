// Tests for the BrightData-like overlay: timing headers, the exit-node
// registry, and the RIPE Atlas-like probe network.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "netsim/random.h"
#include "proxy/brightdata.h"
#include "proxy/headers.h"
#include "proxy/ripe_atlas.h"
#include "resolver/authoritative.h"

namespace dohperf::proxy {
namespace {

TEST(HeadersTest, TunTimelineRoundTrip) {
  TunTimeline t{12.5, 47.25};
  std::string text;
  append_tun_timeline(text, t);
  EXPECT_EQ(text, "dns=12.500 connect=47.250");
  const auto parsed = parse_tun_timeline(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->dns_ms, 12.5, 1e-3);
  EXPECT_NEAR(parsed->connect_ms, 47.25, 1e-3);
}

TEST(HeadersTest, TimelineRoundTrip) {
  BrightDataTimeline t{3.1, 2.2, 6.4, 1.5};
  std::string text = "x-luminati-timeline: ";
  append_timeline(text, t);
  EXPECT_EQ(text,
            "x-luminati-timeline: auth=3.100 init=2.200 select=6.400 "
            "vld=1.500");
  const auto parsed = parse_timeline(text.substr(kTimelineHeader.size() + 2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->total_ms(), t.total_ms(), 1e-3);
  EXPECT_NEAR(parsed->select_ms, 6.4, 1e-3);
}

TEST(HeadersTest, ValuesFormatAsPrintfDoes) {
  // Three decimals, rounded as "%.3f" rounds, at every magnitude the
  // headers can carry, halfway cases and the non-finite values included.
  std::vector<double> values = {
      0.0,    -0.0,   0.0005, 0.0015, 1.0005, 2.5e-4, 999.9995,
      1e-9,   123456789.125,  1e300,  -47.25,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  netsim::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.uniform(0.0, 2000.0));
    values.push_back(std::ldexp(rng.uniform(0.5, 1.0),
                                static_cast<int>(rng.uniform_int(-30, 60))));
  }
  for (const double v : values) {
    std::string got;
    append_tun_timeline(got, {v, -v});
    char want[800];
    std::snprintf(want, sizeof want, "dns=%.3f connect=%.3f", v, -v);
    EXPECT_EQ(got, want) << v;
  }
}

TEST(HeadersTest, TunTimelineRejectsMalformed) {
  EXPECT_EQ(parse_tun_timeline("dns=1.0"), std::nullopt);  // missing connect
  EXPECT_EQ(parse_tun_timeline("dns=x connect=2"), std::nullopt);
  EXPECT_EQ(parse_tun_timeline("dns=1 connect=2 bogus=3"), std::nullopt);
  EXPECT_EQ(parse_tun_timeline("=1 connect=2"), std::nullopt);
  EXPECT_EQ(parse_tun_timeline("dns connect"), std::nullopt);
}

TEST(HeadersTest, TimelineRejectsUnknownKeys) {
  EXPECT_EQ(parse_timeline("auth=1 hack=2"), std::nullopt);
}

TEST(HeadersTest, TimelineToleratesSubset) {
  const auto parsed = parse_timeline("auth=4.5");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->total_ms(), 4.5, 1e-3);
}

TEST(HeadersTest, ExtraWhitespaceTolerated) {
  const auto parsed = parse_tun_timeline("  dns=1.5   connect=2.5 ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->dns_ms + parsed->connect_ms, 4.0, 1e-3);
}

TEST(SuperProxyTest, ElevenCountries) {
  EXPECT_EQ(kSuperProxyCountries.size(), 11u);
  EXPECT_TRUE(resolves_dns_at_super_proxy("US"));
  EXPECT_TRUE(resolves_dns_at_super_proxy("IN"));
  EXPECT_TRUE(resolves_dns_at_super_proxy("AU"));
  EXPECT_FALSE(resolves_dns_at_super_proxy("BR"));
  EXPECT_FALSE(resolves_dns_at_super_proxy("SE"));
}

TEST(SuperProxyTest, NetworkHasElevenLocations) {
  BrightDataNetwork network;
  EXPECT_EQ(network.super_proxies().size(), 11u);
}

TEST(SuperProxyTest, NearestSuperProxySelection) {
  BrightDataNetwork network;
  // A client in Brazil should use the US Super Proxy (Ashburn).
  EXPECT_EQ(network.nearest_super_proxy({-23.55, -46.63}).iso2, "US");
  // A client in Poland should use the German one.
  EXPECT_EQ(network.nearest_super_proxy({52.23, 21.01}).iso2, "DE");
  // A client in Indonesia should use Singapore.
  EXPECT_EQ(network.nearest_super_proxy({-6.21, 106.85}).iso2, "SG");
}

TEST(SuperProxyTest, EnrollAndPick) {
  BrightDataNetwork network;
  netsim::Rng rng(3);
  EXPECT_EQ(network.pick_exit("BR", rng), nullptr);

  ExitNode node;
  node.advertised_iso2 = "BR";
  node.true_iso2 = "BR";
  node.prefix = 77;
  const auto id = network.enroll(std::move(node));

  const ExitNode* picked = network.pick_exit("BR", rng);
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->id, id);
  EXPECT_EQ(network.find(id), picked);
  EXPECT_EQ(network.find(id + 1), nullptr);
  EXPECT_EQ(network.exits_in("BR").size(), 1u);
  EXPECT_TRUE(network.exits_in("SE").empty());
  EXPECT_EQ(network.exit_count(), 1u);
}

TEST(SuperProxyTest, PickIsUniformAcrossNodes) {
  BrightDataNetwork network;
  for (int i = 0; i < 4; ++i) {
    ExitNode node;
    node.advertised_iso2 = "SE";
    node.true_iso2 = "SE";
    network.enroll(std::move(node));
  }
  netsim::Rng rng(9);
  std::array<int, 4> hits{};
  for (int i = 0; i < 4000; ++i) {
    hits[network.pick_exit("SE", rng)->id] += 1;
  }
  for (const int h : hits) EXPECT_NEAR(h, 1000, 120);
}

TEST(SuperProxyTest, OverheadSamplesArePositiveAndBounded) {
  netsim::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto s = BrightDataNetwork::sample_overheads(rng);
    EXPECT_GT(s.auth_ms, 0.0);
    EXPECT_GT(s.total_ms(), 3.0);
    EXPECT_LT(s.total_ms(), 120.0);
  }
}

TEST(AtlasTest, RegisterAndPick) {
  RipeAtlas atlas;
  netsim::Rng rng(2);
  EXPECT_FALSE(atlas.has_probes_in("DE"));
  EXPECT_EQ(atlas.pick_probe("DE", rng), nullptr);

  AtlasProbe probe;
  probe.iso2 = "DE";
  probe.site = netsim::Site{{52.5, 13.4}, 5.0, 1.2, 0.0};
  atlas.register_probe(probe);

  EXPECT_TRUE(atlas.has_probes_in("DE"));
  EXPECT_EQ(atlas.probes().size(), 1u);
  ASSERT_NE(atlas.pick_probe("DE", rng), nullptr);
}

TEST(AtlasTest, MeasureDo53ReturnsPlausibleTime) {
  netsim::Simulator sim;
  netsim::LatencyModel latency;
  netsim::Rng rng(4);
  netsim::NetCtx net{sim, latency, rng};

  const auto origin = dns::DomainName::parse("a.com");
  resolver::AuthoritativeServer authority(
      dns::Zone::make_study_zone(origin, 1), netsim::Site{{0, 0}, 0.5, 1.0,
                                                          0.0});
  resolver::RecursiveResolver resolver("isp", netsim::Site{{0, 30}, 1.0,
                                                           1.0, 0.0},
                                       9, &authority);

  RipeAtlas atlas;
  AtlasProbe probe;
  probe.iso2 = "XX";
  probe.site = netsim::Site{{0, 31}, 4.0, 1.0, 0.0};
  probe.default_resolver = &resolver;
  atlas.register_probe(probe);

  auto task = atlas.measure_do53(net, *atlas.pick_probe("XX", rng),
                                 origin.with_subdomain("atlas-test"));
  sim.run();
  const double ms = task.result();
  // Probe->resolver RTT + resolver->authority RTT + processing: the
  // resolver sits 30 degrees of longitude (~3300 km) from the authority.
  EXPECT_GT(ms, 30.0);
  EXPECT_LT(ms, 120.0);
}

}  // namespace
}  // namespace dohperf::proxy
