// Tests for the extensions: DNS-over-TLS flows and the page-load model.
#include <gtest/gtest.h>

#include "measure/flows.h"
#include "transport/quic.h"
#include "web/pageload.h"
#include "world/world_model.h"

namespace dohperf {
namespace {

struct ExtensionFixture : ::testing::Test {
  static world::WorldModel& world() {
    static world::WorldModel instance = [] {
      world::WorldConfig config;
      config.seed = 99;
      config.client_scale = 0.3;
      config.only_countries = {"SE", "BR", "TZ"};
      return world::WorldModel(config);
    }();
    return instance;
  }

  static const proxy::ExitNode* client(const std::string& iso2) {
    netsim::Rng rng = world().rng().split("ext-test-" + iso2);
    return world().brightdata().pick_exit(iso2, rng);
  }

  static measure::DirectObservation dot(const proxy::ExitNode* exit,
                                        std::size_t pop) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return measure::dot_direct(net, exit->site, exit->default_resolver,
                                 world().doh_server(0, pop),
                                 transport::TlsVersion::kTls13,
                                 world().origin());
    });
  }
  static measure::DirectObservation doh(const proxy::ExitNode* exit,
                                        std::size_t pop) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return measure::doh_direct(net, exit->site, exit->default_resolver,
                                 world().doh_server(0, pop),
                                 transport::TlsVersion::kTls13,
                                 world().origin());
    });
  }
  static measure::DirectObservation doq(const proxy::ExitNode* exit,
                                        std::size_t pop, bool resumed) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return measure::doq_direct(net, exit->site, exit->default_resolver,
                                 world().doh_server(0, pop), world().origin(),
                                 resumed);
    });
  }
  static web::PageLoadResult load(const web::PageLoadContext& ctx,
                                  const web::PageSpec& spec,
                                  web::DnsMode mode) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return web::load_page(net, ctx, spec, mode);
    });
  }
};

TEST_F(ExtensionFixture, DotFlowCompletes) {
  const auto* exit = client("SE");
  ASSERT_NE(exit, nullptr);
  const auto obs = dot(exit, 0);
  ASSERT_TRUE(obs.ok);
  EXPECT_GT(obs.dns_ms, 0.0);
  EXPECT_GT(obs.connect_ms, 0.0);
  EXPECT_GT(obs.tls_ms, 0.0);
  EXPECT_GT(obs.query_ms, 0.0);
  EXPECT_LT(obs.reuse_ms, obs.first_ms());
}

TEST_F(ExtensionFixture, DotAndDohShareCostStructure) {
  // Same PoP, same session mechanics: medians must be within a few
  // percent of each other (DoT only saves the HTTP framing bytes).
  const auto* exit = client("BR");
  ASSERT_NE(exit, nullptr);
  std::vector<double> dot_ms, doh_ms;
  for (int i = 0; i < 9; ++i) {
    dot_ms.push_back(dot(exit, 1).first_ms());
    doh_ms.push_back(doh(exit, 1).first_ms());
  }
  std::nth_element(dot_ms.begin(), dot_ms.begin() + 4, dot_ms.end());
  std::nth_element(doh_ms.begin(), doh_ms.begin() + 4, doh_ms.end());
  EXPECT_NEAR(dot_ms[4], doh_ms[4], 0.15 * doh_ms[4]);
}

web::PageLoadContext make_ctx(world::WorldModel& world,
                              const proxy::ExitNode* exit,
                              std::size_t pop) {
  web::PageLoadContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world.doh_server(0, pop);
  ctx.web_server = world.authority().site();
  ctx.origin = world.origin();
  return ctx;
}

TEST_F(ExtensionFixture, PageLoadCompletes) {
  const auto* exit = client("SE");
  ASSERT_NE(exit, nullptr);
  const auto ctx = make_ctx(world(), exit, 0);
  web::PageSpec spec;
  spec.domains = 4;
  const auto result = load(ctx, spec, web::DnsMode::kDo53);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.total_ms, 0.0);
  EXPECT_GT(result.dns_critical_ms, 0.0);
  EXPECT_LE(result.dns_critical_ms, result.total_ms);
  EXPECT_DOUBLE_EQ(result.dns_setup_ms, 0.0);  // Do53 has no session setup
}

TEST_F(ExtensionFixture, ColdDohPaysSessionSetup) {
  const auto* exit = client("SE");
  ASSERT_NE(exit, nullptr);
  const auto ctx = make_ctx(world(), exit, 0);
  web::PageSpec spec;
  spec.domains = 3;
  const auto result = load(ctx, spec, web::DnsMode::kDohCold);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.dns_setup_ms, 0.0);
}

TEST_F(ExtensionFixture, WarmDohBeatsColdDoh) {
  const auto* exit = client("TZ");
  ASSERT_NE(exit, nullptr);
  const auto ctx = make_ctx(world(), exit, 2);
  web::PageSpec spec;
  spec.domains = 6;
  std::vector<double> cold, warm;
  for (int i = 0; i < 9; ++i) {
    cold.push_back(load(ctx, spec, web::DnsMode::kDohCold).total_ms);
    warm.push_back(load(ctx, spec, web::DnsMode::kDohWarm).total_ms);
  }
  std::nth_element(cold.begin(), cold.begin() + 4, cold.end());
  std::nth_element(warm.begin(), warm.begin() + 4, warm.end());
  EXPECT_LT(warm[4], cold[4]);
}

TEST_F(ExtensionFixture, WiderPagesTakeAtLeastAsLong) {
  const auto* exit = client("BR");
  ASSERT_NE(exit, nullptr);
  const auto ctx = make_ctx(world(), exit, 0);
  std::vector<double> narrow, wide;
  for (int i = 0; i < 7; ++i) {
    web::PageSpec spec;
    spec.domains = 2;
    narrow.push_back(load(ctx, spec, web::DnsMode::kDo53).total_ms);
    spec.domains = 16;
    wide.push_back(load(ctx, spec, web::DnsMode::kDo53).total_ms);
  }
  std::nth_element(narrow.begin(), narrow.begin() + 3, narrow.end());
  std::nth_element(wide.begin(), wide.begin() + 3, wide.end());
  // The slowest of 16 parallel domains dominates the slowest of 2.
  EXPECT_GE(wide[3], narrow[3]);
}

TEST_F(ExtensionFixture, DoqFreshCostsOneRoundTripLessThanDoh) {
  const auto* exit = client("SE");
  ASSERT_NE(exit, nullptr);
  std::vector<double> doh_ms, doq_ms;
  for (int i = 0; i < 9; ++i) {
    doh_ms.push_back(doh(exit, 3).first_ms());
    doq_ms.push_back(doq(exit, 3, /*resumed=*/false).first_ms());
  }
  std::nth_element(doh_ms.begin(), doh_ms.begin() + 4, doh_ms.end());
  std::nth_element(doq_ms.begin(), doq_ms.begin() + 4, doq_ms.end());
  EXPECT_LT(doq_ms[4], doh_ms[4]);
}

TEST_F(ExtensionFixture, ResumedDoqSkipsHandshakeAndBootstrap) {
  const auto* exit = client("BR");
  ASSERT_NE(exit, nullptr);
  const auto obs = doq(exit, 0, /*resumed=*/true);
  ASSERT_TRUE(obs.ok);
  EXPECT_DOUBLE_EQ(obs.dns_ms, 0.0);
  EXPECT_DOUBLE_EQ(obs.connect_ms, 0.0);
  EXPECT_GT(obs.query_ms, 0.0);
  // With 0-RTT, the first query costs the same as a reuse query.
  EXPECT_NEAR(obs.first_ms(), obs.reuse_ms, 0.5 * obs.reuse_ms);
}

TEST_F(ExtensionFixture, QuicConnectTakesOneRoundTrip) {
  netsim::Simulator sim;
  netsim::LatencyModel latency;
  netsim::Rng rng(1);
  netsim::NetCtx net{sim, latency, rng};
  const netsim::Site a{{0, 0}, 1.0, 1.0, 0.0};
  const netsim::Site b{{0, 20}, 1.0, 1.0, 0.0};
  auto task = transport::quic_connect(net, a, b);
  sim.run();
  const auto conn = task.result();
  EXPECT_FALSE(conn.zero_rtt);
  const double expected =
      latency.expected_one_way_ms(a, b, transport::kQuicClientInitialBytes) +
      latency.expected_one_way_ms(a, b, transport::kQuicServerHandshakeBytes);
  EXPECT_NEAR(netsim::to_ms(conn.handshake_time), expected, 0.01);

  auto resumed = transport::quic_resume(net, a, b);
  sim.run();
  EXPECT_TRUE(resumed.result().zero_rtt);
  EXPECT_EQ(resumed.result().handshake_time, netsim::Duration::zero());
}

TEST_F(ExtensionFixture, AuthorityCityIsConfigurable) {
  world::WorldConfig config;
  config.seed = 5;
  config.only_countries = {"SE"};
  config.authority_city = "Singapore";
  world::WorldModel sg(config);
  const geo::City* singapore = geo::find_city("Singapore");
  ASSERT_NE(singapore, nullptr);
  EXPECT_EQ(sg.authority().site().position, singapore->position);

  config.authority_city = "Atlantis";
  EXPECT_THROW(world::WorldModel bad(config), std::invalid_argument);
}

TEST_F(ExtensionFixture, DnsModeNames) {
  EXPECT_EQ(web::to_string(web::DnsMode::kDo53), "Do53");
  EXPECT_EQ(web::to_string(web::DnsMode::kDohCold), "DoH (cold session)");
  EXPECT_EQ(web::to_string(web::DnsMode::kDohWarm), "DoH (warm session)");
}

}  // namespace
}  // namespace dohperf
