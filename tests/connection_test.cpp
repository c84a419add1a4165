// Tests for the layered connection stack: netsim::Path framing / trace /
// loss, transport::Connection stacking, proxy::Tunnel semantics, and a
// golden regression pinning doh_via_proxy's step timestamps.
#include <gtest/gtest.h>

#include <vector>

#include "measure/flows.h"
#include "netsim/path.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "proxy/tunnel.h"
#include "transport/connection.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "transport/tls.h"
#include "world/world_model.h"

namespace dohperf {
namespace {

using netsim::NetCtx;
using netsim::Path;
using netsim::Site;

struct StackFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::Rng rng{7};
  obs::SpanContext trace;
  NetCtx net{sim, rng, &trace};
  /// The messages captured so far: the span tree's hop leaves.
  [[nodiscard]] std::vector<const obs::Span*> hops() const {
    return trace.hop_view();
  }
  // Jitter-free sites for exact assertions.
  Site a{{0, 0}, 2.0, 1.0, 0.0};
  Site b{{0, 20}, 1.0, 1.0, 0.0};
};

// ------------------------------------------------------------------ Path

TEST_F(StackFixture, PathDefaultsToNoFraming) {
  Path path(net, a, b);
  auto task = path.send(100);
  sim.run();
  ASSERT_TRUE(task.done());
  ASSERT_EQ(hops().size(), 1u);
  EXPECT_EQ(hops()[0]->bytes, 100u);
}

TEST_F(StackFixture, PathFramingAppliesPerDirection) {
  Path path(net, a, b);
  path.set_framing(28, 10);
  auto fwd = path.send(100);
  sim.run();
  auto back = path.recv(50);
  sim.run();
  ASSERT_TRUE(fwd.done());
  ASSERT_TRUE(back.done());
  ASSERT_EQ(hops().size(), 2u);
  EXPECT_EQ(hops()[0]->bytes, 128u);
  EXPECT_EQ(hops()[1]->bytes, 60u);
  // Direction: forward leaves a, backward leaves b.
  EXPECT_EQ(hops()[0]->from.lat, a.position.lat);
  EXPECT_EQ(hops()[1]->from.lat, b.position.lat);
}

TEST_F(StackFixture, PathTraceRecordsTiming) {
  Path path(net, a, b);
  auto task = path.send(64);
  sim.run();
  ASSERT_EQ(hops().size(), 1u);
  const obs::Span& event = *hops()[0];
  const double expected = netsim::expected_one_way_ms(a, b, 64);
  // SimTime has microsecond ticks, so the delivered delay is the
  // expectation truncated to 1 us.
  EXPECT_NEAR(netsim::ms_between(event.start, event.end), expected, 1e-3);
}

TEST_F(StackFixture, PathDeliveryRetries) {
  Site lossless = a;
  Site lossy = b;
  lossy.loss_rate = 1.0;
  const netsim::RetryPolicy policy{std::chrono::milliseconds(800), 4};

  Path clean(net, lossless, a);
  auto clean_task = clean.deliver_with_retry(policy);
  sim.run();
  ASSERT_TRUE(clean_task.done());
  EXPECT_TRUE(clean_task.result().delivered);
  EXPECT_EQ(clean_task.result().retransmits, 0);
  EXPECT_EQ(clean_task.result().backoff, netsim::Duration::zero());

  // Certain loss, no fault episode: the baseline charges exactly one
  // retransmit timer and assumes the retransmit arrives.
  Path dirty(net, lossless, lossy);
  const netsim::SimTime before = sim.now();
  auto dirty_task = dirty.deliver_with_retry(policy);
  sim.run();
  ASSERT_TRUE(dirty_task.done());
  EXPECT_TRUE(dirty_task.result().delivered);
  EXPECT_EQ(dirty_task.result().retransmits, 1);
  EXPECT_EQ(dirty_task.result().backoff,
            netsim::Duration(std::chrono::milliseconds(800)));
  EXPECT_EQ(sim.now() - before,
            netsim::Duration(std::chrono::milliseconds(800)));
}

// ------------------------------------------------- Connection stacking

TEST_F(StackFixture, TlsOverTcpOverheadAccounting) {
  auto conn_task = transport::tcp_connect(net, a, b);
  sim.run();
  const transport::TcpConnection tcp = conn_task.result();
  EXPECT_EQ(tcp.stack_overhead(), 0u);

  const transport::TlsSession tls(tcp);
  EXPECT_EQ(tls.layer_overhead(), transport::kRecordOverheadBytes);
  EXPECT_EQ(tls.stack_overhead(), transport::kRecordOverheadBytes);

  const transport::LengthPrefixedChannel dot(tls);
  EXPECT_EQ(dot.stack_overhead(), transport::kLengthPrefixBytes +
                                      transport::kRecordOverheadBytes);

  trace.clear();
  auto task = tls.send(100);
  sim.run();
  ASSERT_EQ(hops().size(), 1u);
  EXPECT_EQ(hops()[0]->bytes,
            100u + transport::kRecordOverheadBytes);

  trace.clear();
  auto dot_task = dot.recv(100);
  sim.run();
  ASSERT_EQ(hops().size(), 1u);
  EXPECT_EQ(hops()[0]->bytes,
            100u + transport::kLengthPrefixBytes +
                transport::kRecordOverheadBytes);
  // Stacked delivery leaves b (the server side of the underlying path).
  EXPECT_EQ(hops()[0]->from.lon, b.position.lon);
}

TEST_F(StackFixture, TlsHandshakeWireSizes) {
  auto conn_task = transport::tcp_connect(net, a, b);
  sim.run();
  trace.clear();
  auto tls12 = transport::tls_handshake(conn_task.result(),
                                        transport::TlsVersion::kTls12);
  sim.run();
  ASSERT_TRUE(tls12.done());
  // ClientHello, ServerHello, then the 1.2 Finished exchange where only
  // the server's reply is record-layer framed.
  ASSERT_EQ(hops().size(), 4u);
  EXPECT_EQ(hops()[0]->bytes, transport::kClientHelloBytes);
  EXPECT_EQ(hops()[1]->bytes, transport::kServerHelloBytes);
  EXPECT_EQ(hops()[2]->bytes, transport::kClientFinishedBytes);
  EXPECT_EQ(hops()[3]->bytes,
            transport::kServerFinishedBytes +
                transport::kRecordOverheadBytes);
}

TEST_F(StackFixture, TlsSessionResumptionIsOneRoundTrip) {
  obs::Metrics metrics;
  net.metrics = &metrics;
  auto conn_task = transport::tcp_connect(net, a, b);
  sim.run();
  const transport::TcpConnection tcp = conn_task.result();

  trace.clear();
  const netsim::SimTime start = sim.now();
  auto resumed = transport::tls_resume(tcp, transport::TlsVersion::kTls13);
  sim.run();
  ASSERT_TRUE(resumed.done());
  const transport::TlsSession tls = resumed.result();

  EXPECT_TRUE(tls.established);
  EXPECT_TRUE(tls.resumed);
  EXPECT_EQ(metrics.counters.tls_resumptions, 1u);

  // Abbreviated exchange: ticket-bearing ClientHello out, combined
  // ServerHello..Finished back — no certificate, two small flights.
  ASSERT_EQ(hops().size(), 2u);
  EXPECT_EQ(hops()[0]->bytes, transport::kResumeClientHelloBytes);
  EXPECT_EQ(hops()[1]->bytes, transport::kResumeServerHelloBytes);

  // Golden timing: exactly one round trip of the two flights (each leg
  // truncated to the simulator's 1 us tick), with no fault episode the
  // handshake gate is free.
  const double expected =
      netsim::expected_one_way_ms(a, b, transport::kResumeClientHelloBytes) +
      netsim::expected_one_way_ms(b, a, transport::kResumeServerHelloBytes);
  EXPECT_NEAR(netsim::ms_between(start, sim.now()), expected, 2e-3);
  EXPECT_NEAR(netsim::to_ms(tls.handshake_time), expected, 2e-3);
  EXPECT_EQ(tls.established_at, sim.now());

  // The abbreviated handshake must be strictly cheaper than a full one.
  auto full = transport::tls_handshake(tcp, transport::TlsVersion::kTls13);
  sim.run();
  EXPECT_FALSE(full.result().resumed);
  EXPECT_GT(full.result().handshake_time, tls.handshake_time);
  EXPECT_EQ(metrics.counters.tls_resumptions, 1u);  // full does not count
}

TEST_F(StackFixture, QuicZeroRttResumption) {
  auto resumed = transport::quic_resume(net, a, b);
  sim.run();
  ASSERT_TRUE(resumed.done());
  const transport::QuicConnection conn = resumed.result();
  EXPECT_TRUE(conn.zero_rtt);
  EXPECT_EQ(conn.handshake_time, netsim::Duration::zero());
  // Resumption itself moves nothing.
  EXPECT_EQ(hops().size(), 0u);

  // ...but every record pays the short-header overhead.
  auto task = conn.send(120);
  sim.run();
  ASSERT_EQ(hops().size(), 1u);
  EXPECT_EQ(hops()[0]->bytes,
            120u + transport::kQuicShortHeaderOverhead);
}

// ----------------------------------------------------------- Tunnel

struct TunnelFixture : StackFixture {
  Site exit{{10, 40}, 3.0, 1.2, 0.0};

  // a = client, b = Super Proxy.
  proxy::Tunnel tunnel{net, a, b, exit};
};

TEST_F(TunnelFixture, EstablishedDeliveryCrossesBothLegs) {
  const netsim::SimTime start = sim.now();
  auto task = tunnel.send_framed(500);
  sim.run();
  ASSERT_TRUE(task.done());
  ASSERT_EQ(hops().size(), 2u);
  EXPECT_EQ(hops()[0]->bytes, 500u);
  EXPECT_EQ(hops()[1]->bytes, 500u);
  EXPECT_EQ(hops()[0]->from.lat, a.position.lat);
  EXPECT_EQ(hops()[1]->to.lat, exit.position.lat);

  // Delivery pays both intermediaries' forwarding delays on top of the
  // two legs' propagation.
  const double legs = netsim::expected_one_way_ms(a, b, 500) +
                      netsim::expected_one_way_ms(b, exit, 500);
  const double expected = legs + proxy::kSuperProxyForwardMs +
                          proxy::kExitForwardingMs;
  // Four scheduled delays (two hops, two process calls), each truncated
  // to the simulator's 1 us tick.
  EXPECT_NEAR(netsim::ms_between(start, sim.now()), expected, 4e-3);
}

TEST_F(TunnelFixture, TimelineHeadersSurviveTheReply) {
  transport::HttpRequest connect_req;
  connect_req.method = "CONNECT";
  connect_req.target = "dns.example:443";
  auto establish = tunnel.connect_to_super_proxy(connect_req);
  sim.run();
  ASSERT_TRUE(establish.done());
  EXPECT_GT(tunnel.overheads().total_ms(), 0.0);

  proxy::TunTimeline tun;
  tun.dns_ms = 14.5;
  tun.connect_ms = 126.25;
  trace.clear();
  auto reply = tunnel.send_established_reply(tun);
  sim.run();
  ASSERT_TRUE(reply.done());
  const std::string wire = reply.result();

  // One message, both legs, same size (the t7/t8 invariant).
  ASSERT_EQ(hops().size(), 2u);
  EXPECT_EQ(hops()[0]->bytes, wire.size());
  EXPECT_EQ(hops()[1]->bytes, wire.size());
  EXPECT_EQ(hops()[0]->from.lat, exit.position.lat);
  EXPECT_EQ(hops()[1]->to.lat, a.position.lat);

  // The client can parse back exactly what the exit node stamped.
  const auto parsed = transport::parse_response(wire);
  ASSERT_TRUE(parsed.has_value());
  const auto tun_text = parsed->headers.get(proxy::kTunTimelineHeader);
  const auto bd_text = parsed->headers.get(proxy::kTimelineHeader);
  ASSERT_TRUE(tun_text.has_value());
  ASSERT_TRUE(bd_text.has_value());
  const auto tun_parsed = proxy::parse_tun_timeline(*tun_text);
  ASSERT_TRUE(tun_parsed.has_value());
  EXPECT_DOUBLE_EQ(tun_parsed->dns_ms, 14.5);
  EXPECT_DOUBLE_EQ(tun_parsed->connect_ms, 126.25);
  const auto bd_parsed = proxy::parse_timeline(*bd_text);
  ASSERT_TRUE(bd_parsed.has_value());
  // Header fields serialize with three decimal places.
  EXPECT_NEAR(bd_parsed->total_ms(), tunnel.overheads().total_ms(), 1e-3);
}

TEST_F(TunnelFixture, TlsSessionStacksOnTunnel) {
  const transport::TlsSession tls(tunnel);
  auto task = tls.send(200);
  sim.run();
  ASSERT_EQ(hops().size(), 2u);
  EXPECT_EQ(hops()[0]->bytes,
            200u + transport::kRecordOverheadBytes);
  EXPECT_EQ(hops()[1]->bytes,
            200u + transport::kRecordOverheadBytes);
}

// ------------------------------------------- doh_via_proxy golden check

// Step-timestamp goldens recorded from the pre-refactor flow (after the
// t7 byte-size fix), world seed 1234, scale 0.2, countries {SE, US}, in a
// world built at each TLS version.
// The refactor contract is timing transparency: same sleeps, same order,
// same RNG draws — so every observable must match bit-for-bit.
struct FlowGolden {
  transport::TlsVersion tls;
  double t_b, t_d;
  double dns_ms, connect_ms, tls_ms, query_ms, brightdata_ms;
  std::size_t hops;
  std::size_t wire_bytes;
};

class DohViaProxyGolden
    : public ::testing::TestWithParam<FlowGolden> {};

TEST_P(DohViaProxyGolden, StepTimestampsAreUnchanged) {
  const FlowGolden& golden = GetParam();

  world::WorldConfig config;
  config.seed = 1234;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "US"};
  config.tls_version = golden.tls;
  world::WorldModel world(config);

  netsim::Rng pick = world.rng().split("golden-pick");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", pick);
  ASSERT_NE(exit, nullptr);

  const netsim::Site& super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;

  obs::SpanContext capture;
  const measure::DohProxyObservation obs = world.run_flow([&](NetCtx& net) {
    net.spans = &capture;
    return measure::doh_via_proxy(net, *exit, super_proxy,
                                  world.doh_server(0, 0));
  });

  ASSERT_TRUE(obs.ok);
  EXPECT_EQ(obs.http_status, 200);
  EXPECT_EQ(obs.inputs.stamps.t_a, 0.0);
  EXPECT_EQ(obs.inputs.stamps.t_b, golden.t_b);
  EXPECT_EQ(obs.inputs.stamps.t_c, golden.t_b);  // parse takes no sim time
  EXPECT_EQ(obs.inputs.stamps.t_d, golden.t_d);
  EXPECT_EQ(obs.true_dns_ms, golden.dns_ms);
  EXPECT_EQ(obs.true_connect_ms, golden.connect_ms);
  EXPECT_EQ(obs.true_tls_ms, golden.tls_ms);
  EXPECT_EQ(obs.true_query_ms, golden.query_ms);
  EXPECT_EQ(obs.inputs.brightdata_ms, golden.brightdata_ms);

  std::size_t total_bytes = 0;
  for (const auto* hop : capture.hop_view()) total_bytes += hop->bytes;
  EXPECT_EQ(capture.hop_view().size(), golden.hops);
  EXPECT_EQ(total_bytes, golden.wire_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    RecordedGoldens, DohViaProxyGolden,
    ::testing::Values(
        FlowGolden{transport::TlsVersion::kTls13, 270.61399999999998,
                   764.79300000000001, 14.427, 126.42, 121.127,
                   149.21299999999999, 15.095000000000001, 22, 12913},
        FlowGolden{transport::TlsVersion::kTls12, 270.61399999999998,
                   969.89200000000005, 14.427, 126.42, 121.127, 140.494,
                   15.095000000000001, 28, 13336}),
    [](const ::testing::TestParamInfo<FlowGolden>& info) {
      return info.param.tls == transport::TlsVersion::kTls13 ? "Tls13"
                                                             : "Tls12";
    });

}  // namespace
}  // namespace dohperf
