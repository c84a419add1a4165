// Tests for the measurement flows over a small world: proxied DoH/Do53
// (the 22-step timeline) and the direct ground-truth variants.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/policy.h"
#include "dns/zone.h"
#include "measure/estimator.h"
#include "measure/flows.h"
#include "measure/warm.h"
#include "resolver/shared_cache.h"
#include "web/pageload.h"
#include "world/world_model.h"

namespace dohperf::measure {
namespace {

// A small world and the flows run on it. Every test gets a world of its
// own: flows advance the world's clock and warm its resolvers, so a shared
// world would make each test's numbers depend on which tests ran before it
// in the same process. Worlds built at different TLS versions differ only
// in their DoH servers' version: equal seeds give equal exits and PoPs.
struct FlowsWorld {
  static world::WorldConfig world_config(transport::TlsVersion tls) {
    world::WorldConfig config;
    config.seed = 21;
    config.client_scale = 0.3;
    config.only_countries = {"SE", "BR", "ZA", "US", "JP"};
    config.tls_version = tls;
    return config;
  }

  explicit FlowsWorld(transport::TlsVersion tls) : world_(world_config(tls)) {}

  world::WorldModel& world() { return world_; }

  const proxy::ExitNode* exit_in(const std::string& iso2) {
    netsim::Rng rng = world().rng().split("flows-test-" + iso2);
    return world().brightdata().pick_exit(iso2, rng);
  }

  const netsim::Site& super_proxy(const proxy::ExitNode* exit) {
    return world().brightdata().nearest_super_proxy(exit->site.position).site;
  }
  DohProxyObservation proxied_doh(const proxy::ExitNode* exit,
                                  std::size_t provider_index,
                                  std::size_t pop_index) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return doh_via_proxy(net, *exit, super_proxy(exit),
                           world().doh_server(provider_index, pop_index));
    });
  }
  Do53ProxyObservation proxied_do53(const proxy::ExitNode* exit) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return do53_via_proxy(net, *exit, super_proxy(exit),
                            world().authority());
    });
  }
  DirectObservation direct_doh(const proxy::ExitNode* exit,
                               std::size_t provider_index) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return doh_direct(net, exit->site, exit->default_resolver,
                        world().doh_server(provider_index, 0));
    });
  }
  double direct_do53(const proxy::ExitNode* exit, const std::string& label) {
    return world().run_flow([&](netsim::NetCtx& net) {
      return do53_direct(net, exit->site, exit->default_resolver,
                         dns::study_origin().with_subdomain(label));
    });
  }

  /// Runs once, traced, each client flow that bootstraps a DoH server's
  /// name and connects to it (by its entry point's name).
  std::vector<std::pair<std::string, obs::SpanContext>> traced_client_flows() {
    const auto* exit = exit_in("SE");
    EXPECT_NE(exit, nullptr);
    if (exit == nullptr) return {};
    resolver::DohServer& doh = world().doh_server(0, 0);
    resolver::SharedCacheConfig cache_config;
    cache_config.enabled = true;
    const resolver::SharedCacheModel cache(cache_config);
    WarmDohParams warm;
    warm.vantage = exit->site;
    warm.default_resolver = exit->default_resolver;
    warm.doh = &doh;
    warm.cache = &cache;
    warm.reuse.enabled = true;
    warm.reuse.queries_per_session = 4;
    web::PageLoadContext page;
    page.client = exit->site;
    page.default_resolver = exit->default_resolver;
    page.doh = &doh;
    page.web_server = world().authority().site();
    client::PolicyContext policy;
    policy.client = exit->site;
    policy.default_resolver = exit->default_resolver;
    policy.doh = &doh;

    using Launch = std::function<netsim::Task<void>(netsim::NetCtx&)>;
    const std::pair<const char*, Launch> entry_points[] = {
        {"doh_via_proxy",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE(
               (co_await doh_via_proxy(net, *exit, super_proxy(exit), doh)).ok);
         }},
        {"doh_direct",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await doh_direct(net, exit->site,
                                            exit->default_resolver, doh))
                           .ok);
         }},
        {"dot_direct",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await dot_direct(net, exit->site,
                                            exit->default_resolver, doh))
                           .ok);
         }},
        {"doq_direct",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await doq_direct(net, exit->site,
                                            exit->default_resolver, doh))
                           .ok);
         }},
        {"doh_warm_path",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await doh_warm_path(net, warm)).ok);
         }},
        {"load_page",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await web::load_page(net, page, /*domains=*/2,
                                                web::DnsMode::kDohCold))
                           .ok);
         }},
        {"resolve_with_policy",
         [&](netsim::NetCtx& net) -> netsim::Task<void> {
           EXPECT_TRUE((co_await client::resolve_with_policy(
                            net, policy, client::DohMode::kStrict))
                           .used_doh);
         }},
    };
    std::vector<std::pair<std::string, obs::SpanContext>> traced;
    for (const auto& [name, launch] : entry_points) {
      obs::SpanContext& spans = traced.emplace_back(name, obs::SpanContext{})
                                    .second;
      world().run_flow([&](netsim::NetCtx& net) {
        net.spans = &spans;
        return launch(net);
      });
    }
    return traced;
  }

  world::WorldModel world_;
};

struct FlowsFixture : ::testing::Test, FlowsWorld {
  FlowsFixture() : FlowsWorld(transport::TlsVersion::kTls13) {}
};

TEST_F(FlowsFixture, DohProxyFlowCompletes) {
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  const DohProxyObservation obs = proxied_doh(exit, 0, 0);
  ASSERT_TRUE(obs.ok);
  EXPECT_EQ(obs.http_status, 200);
  EXPECT_GT(obs.true_dns_ms, 0.0);
  EXPECT_GT(obs.true_connect_ms, 0.0);
  EXPECT_GT(obs.true_tls_ms, 0.0);
  EXPECT_GT(obs.true_query_ms, 0.0);
}

TEST_F(FlowsFixture, TimestampsAreOrdered) {
  const auto* exit = exit_in("BR");
  ASSERT_NE(exit, nullptr);
  const auto obs = proxied_doh(exit, 1, 3);
  ASSERT_TRUE(obs.ok);
  EXPECT_LT(obs.inputs.stamps.t_a, obs.inputs.stamps.t_b);
  EXPECT_LE(obs.inputs.stamps.t_b, obs.inputs.stamps.t_c);
  EXPECT_LT(obs.inputs.stamps.t_c, obs.inputs.stamps.t_d);
}

TEST_F(FlowsFixture, HeadersCarryTunnelTimings) {
  const auto* exit = exit_in("ZA");
  ASSERT_NE(exit, nullptr);
  const auto obs = proxied_doh(exit, 0, 5);
  ASSERT_TRUE(obs.ok);
  // The reported tun-timeline must match the simulator's internal truth
  // (the Super Proxy reports what the exit node measured).
  EXPECT_NEAR(obs.inputs.tun.dns_ms, obs.true_dns_ms, 1e-3);
  EXPECT_NEAR(obs.inputs.tun.connect_ms, obs.true_connect_ms, 1e-3);
  EXPECT_GT(obs.inputs.brightdata_ms, 0.0);
}

TEST_F(FlowsFixture, EstimatorTracksTruthWithinJitterBudget) {
  // Across repetitions, the median Eq. 7 estimate must track the median
  // internal truth within the error band the paper reports (<= ~10 ms
  // for EC2-grade nodes; residential jitter allows a little more).
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  std::vector<double> est, truth;
  for (int i = 0; i < 15; ++i) {
    const auto obs = proxied_doh(exit, 0, 2);
    ASSERT_TRUE(obs.ok);
    est.push_back(estimate_tdoh_ms(obs.inputs));
    truth.push_back(obs.true_tdoh_ms());
  }
  std::nth_element(est.begin(), est.begin() + 7, est.end());
  std::nth_element(truth.begin(), truth.begin() + 7, truth.end());
  EXPECT_NEAR(est[7], truth[7], 18.0);
}

TEST_F(FlowsFixture, Tls12CostsAnExtraRoundTrip) {
  FlowsWorld tls12_world(transport::TlsVersion::kTls12);
  const auto* exit = exit_in("JP");
  const auto* exit12 = tls12_world.exit_in("JP");
  ASSERT_NE(exit, nullptr);
  ASSERT_NE(exit12, nullptr);
  std::vector<double> t13, t12;
  for (int i = 0; i < 9; ++i) {
    const auto tls13 = proxied_doh(exit, 0, 1);
    t13.push_back(tls13.inputs.stamps.t_d - tls13.inputs.stamps.t_a);
    const auto tls12 =
        tls12_world.proxied_doh(exit12, 0, 1);
    t12.push_back(tls12.inputs.stamps.t_d - tls12.inputs.stamps.t_a);
  }
  std::nth_element(t13.begin(), t13.begin() + 4, t13.end());
  std::nth_element(t12.begin(), t12.begin() + 4, t12.end());
  EXPECT_GT(t12[4], t13[4]);
}

TEST_F(FlowsFixture, DirectDohMeasuresComponents) {
  const auto* exit = exit_in("BR");
  ASSERT_NE(exit, nullptr);
  const auto obs = direct_doh(exit, 0);
  ASSERT_TRUE(obs.ok);
  EXPECT_GT(obs.dns_ms, 0.0);
  EXPECT_GT(obs.connect_ms, 0.0);
  EXPECT_GT(obs.tls_ms, 0.0);
  EXPECT_GT(obs.query_ms, 0.0);
  EXPECT_GT(obs.reuse_ms, 0.0);
  // Reuse skips the handshakes: it must be well below the full first
  // query.
  EXPECT_LT(obs.reuse_ms, obs.first_ms());
  EXPECT_NEAR(obs.first_ms(),
              obs.dns_ms + obs.connect_ms + obs.tls_ms + obs.query_ms,
              1e-9);
}

TEST_F(FlowsFixture, Do53ProxyFlowReportsExitResolution) {
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  const auto obs = proxied_do53(exit);
  ASSERT_TRUE(obs.ok);
  EXPECT_FALSE(obs.resolved_at_super_proxy);
  EXPECT_GT(obs.tun.dns_ms, 0.0);
  EXPECT_NEAR(obs.tun.dns_ms, obs.true_do53_ms, 1e-3);
}

TEST_F(FlowsFixture, Do53AtSuperProxyIsFlaggedAndFast) {
  // In the 11 Super Proxy countries the reported dns value reflects the
  // Super Proxy's own (datacenter) resolution, not the exit node's.
  const auto* exit = exit_in("US");
  ASSERT_NE(exit, nullptr);
  ASSERT_TRUE(proxy::resolves_dns_at_super_proxy(exit->advertised_iso2));
  const auto obs = proxied_do53(exit);
  ASSERT_TRUE(obs.ok);
  EXPECT_TRUE(obs.resolved_at_super_proxy);
  EXPECT_TRUE(std::isnan(obs.true_do53_ms));
  // Ashburn Super Proxy to the Ashburn authoritative: a few ms at most.
  EXPECT_LT(obs.tun.dns_ms, 20.0);
}

TEST_F(FlowsFixture, Do53DirectMatchesResolverPath) {
  const auto* exit = exit_in("ZA");
  ASSERT_NE(exit, nullptr);
  std::vector<double> direct, via_header;
  for (int i = 0; i < 15; ++i) {
    direct.push_back(direct_do53(exit, "gt-" + std::to_string(i)));
    const auto obs = proxied_do53(exit);
    ASSERT_TRUE(obs.ok);
    via_header.push_back(obs.tun.dns_ms);
  }
  std::nth_element(direct.begin(), direct.begin() + 7, direct.end());
  std::nth_element(via_header.begin(), via_header.begin() + 7,
                   via_header.end());
  // The paper's Table 2 shows sub-2ms agreement for EC2 nodes; allow a
  // wider band for residential jitter.
  EXPECT_NEAR(direct[7], via_header[7], 25.0);
}

TEST_F(FlowsFixture, TraceConfirmsDefaultResolverIsUsed) {
  // The paper's Section 4.3 Wireshark validation: when the exit node
  // resolves via Do53, the first captured packet must go to the node's
  // OS-configured default resolver.
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  obs::SpanContext capture;
  const double ms = world().run_flow([&](netsim::NetCtx& net) {
    net.spans = &capture;
    return do53_direct(net, exit->site, exit->default_resolver,
                       dns::study_origin().with_subdomain("wireshark-check"));
  });
  ASSERT_GE(ms, 0.0);

  const std::vector<const obs::Span*> packets = capture.hop_view();
  ASSERT_GE(packets.size(), 4u);  // stub->res, res->auth, auth->res, back
  const obs::Span& first = *packets.front();
  EXPECT_EQ(first.from, exit->site.position);
  EXPECT_EQ(first.to, exit->default_resolver->site().position);
  // The recursion leg reaches the authoritative server in Ashburn.
  bool touched_authority = false;
  for (const obs::Span* packet : packets) {
    touched_authority |=
        packet->to == world().authority().site().position;
  }
  EXPECT_TRUE(touched_authority);
  // Timestamps are causally ordered per packet.
  for (const obs::Span* packet : packets) {
    EXPECT_LE(packet->start, packet->end);
  }
}

TEST_F(FlowsFixture, ReuseIsCheaperAcrossAllProviders) {
  const auto* exit = exit_in("BR");
  ASSERT_NE(exit, nullptr);
  for (std::size_t p = 0; p < world().providers().size(); ++p) {
    const auto& provider = world().providers()[p];
    const auto obs = direct_doh(exit, p);
    ASSERT_TRUE(obs.ok) << provider.name();
    EXPECT_LT(obs.reuse_ms, obs.first_ms()) << provider.name();
  }
}

// resolver::bootstrap traces itself: every flow that looks up its
// resolver's name before connecting shows one `bootstrap_dns` span whose
// only child is the lookup's `stub_resolve`.
TEST_F(FlowsFixture, EveryBootstrapTracesOneSpanAroundItsLookup) {
  for (const auto& [name, spans] : traced_client_flows()) {
    std::vector<const obs::Span*> bootstraps;
    for (const obs::Span& span : spans.spans()) {
      if (span.name == "bootstrap_dns") bootstraps.push_back(&span);
    }
    EXPECT_EQ(bootstraps.size(), 1u) << name;
    if (bootstraps.size() != 1) continue;
    std::vector<std::string> children;
    for (const obs::Span& span : spans.spans()) {
      if (span.parent == bootstraps.front()->id) {
        children.push_back(span.name);
      }
    }
    EXPECT_EQ(children, std::vector<std::string>{"stub_resolve"}) << name;
  }
}

/// The hops under each TLS handshake a traced flow ran, in the order the
/// handshakes began: its `tls_handshake` steps, and the proxied flow's
/// tunnelled `handshake` phase.
std::vector<std::size_t> handshake_flights(const obs::SpanContext& capture) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> flights;
  // Parents open before their children, so a span's handshake (if any)
  // is known by the time the span is visited.
  std::vector<std::size_t> flight_of(capture.spans().size(), kNone);
  for (const obs::Span& span : capture.spans()) {
    std::size_t flight = kNone;
    if (span.name == "tls_handshake" || span.name == "handshake") {
      flight = flights.size();
      flights.push_back(0);
    } else if (span.parent != obs::kNoSpan) {
      flight = flight_of[span.parent];
    }
    flight_of[span.id] = flight;
    if (span.hop && flight != kNone) ++flights[flight];
  }
  return flights;
}

// Every DoH and DoT handshake runs at the TLS version of the server it
// reaches, which the world builds at world.tls_version: in a TLS 1.2 world
// each carries the second round trip, twice the flights of the TLS 1.3
// world's. The page load's content-host handshakes stay TLS 1.3, and DoQ
// has no TLS-over-TCP handshake at all.
TEST_F(FlowsFixture, EveryDohHandshakeRunsAtTheWorldsTlsVersion) {
  FlowsWorld tls12_world(transport::TlsVersion::kTls12);
  const auto tls13 = traced_client_flows();
  const auto tls12 = tls12_world.traced_client_flows();
  ASSERT_EQ(tls13.size(), tls12.size());
  for (std::size_t i = 0; i < tls13.size(); ++i) {
    const std::string& name = tls13[i].first;
    const std::vector<std::size_t> flights13 =
        handshake_flights(tls13[i].second);
    const std::vector<std::size_t> flights12 =
        handshake_flights(tls12[i].second);
    ASSERT_EQ(flights12.size(), flights13.size()) << name;
    if (name == "doq_direct") {
      EXPECT_TRUE(flights13.empty());
      continue;
    }
    ASSERT_FALSE(flights13.empty()) << name;
    // The first handshake is the one with the DoH or DoT server.
    EXPECT_EQ(flights12[0], 2 * flights13[0]) << name;
    // Only the page load runs more: one per content host, at TLS 1.3 in
    // both worlds, each holding its own ClientHello and ServerHello.
    if (name != "load_page") {
      EXPECT_EQ(flights13.size(), 1u) << name;
    }
    for (std::size_t host = 1; host < flights13.size(); ++host) {
      EXPECT_EQ(flights13[host], 2u) << name << " content host " << host;
      EXPECT_EQ(flights12[host], 2u) << name << " content host " << host;
    }
  }
  // Campaign flows run on replicas, whose servers take the version too.
  EXPECT_EQ(
      tls12_world.world().make_replica()->doh_server(0, 0).tls_version(),
      transport::TlsVersion::kTls12);
}

}  // namespace
}  // namespace dohperf::measure
