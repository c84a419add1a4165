#include "measure/flows.h"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dns/wire.h"
#include "geo/cities.h"
#include "proxy/headers.h"
#include "proxy/tunnel.h"
#include "resolver/stub.h"
#include "transport/http.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace dohperf::measure {
namespace {

using netsim::Duration;
using netsim::NetCtx;
using netsim::SimTime;
using netsim::Site;
using netsim::Task;
using netsim::from_ms;
using netsim::ms_between;
// The flows name their observation locals `obs`, which shadows the
// dohperf::obs namespace inside function scope; alias what they use here.
using MetricCounters = dohperf::obs::MetricCounters;
using Phase = dohperf::obs::Phase;

/// Resolver-side key-schedule cost during the tunnelled TLS handshake.
constexpr double kResolverKeyScheduleMs = 0.3;

/// Study web server: static-page service time and response body size.
constexpr double kStaticPageMs = 0.4;
constexpr std::size_t kPageBodyBytes = 2048;

/// The study's measurement client, the one vantage both proxied flows
/// measure from: a university network in Illinois (paper Section 3.2).
const Site& study_client() {
  static const Site client = [] {
    const geo::City* chicago = geo::find_city("Chicago");
    if (chicago == nullptr) throw std::logic_error("no Chicago in city table");
    return Site{.position = chicago->position,
                .lastmile_ms = 1.0,
                .route_inflation = 1.10,
                .jitter_sigma = 0.05};
  }();
  return client;
}

/// A stub resolution at `vantage` against `resolver`; returns elapsed ms
/// (negative on failure). Thin adapter over resolver::stub_resolve.
Task<double> resolve_at(NetCtx& net, Site vantage,
                        resolver::RecursiveResolver* resolver,
                        dns::Message query,
                        std::uint32_t client_address = 0) {
  const resolver::StubResult result = co_await resolver::stub_resolve(
      net, vantage, *resolver, std::move(query), client_address);
  co_return result.ok() ? result.elapsed_ms : -1.0;
}

/// The client's read of the tunnel's 200 OK, shared by both proxied
/// flows: parse the reply, then both x-luminati timelines. False, with
/// nothing stored, on a malformed reply or header.
bool read_timelines(std::string_view ok_wire, proxy::TunTimeline& tun,
                    double& brightdata_ms) {
  const auto parsed = transport::parse_response(ok_wire);
  if (!parsed) return false;
  const auto tun_text = parsed->headers.get(proxy::kTunTimelineHeader);
  const auto bd_text = parsed->headers.get(proxy::kTimelineHeader);
  if (!tun_text || !bd_text) return false;
  const auto tun_parsed = proxy::parse_tun_timeline(*tun_text);
  const auto bd_parsed = proxy::parse_timeline(*bd_text);
  if (!tun_parsed || !bd_parsed) return false;
  tun = *tun_parsed;
  brightdata_ms = bd_parsed->total_ms();
  return true;
}

}  // namespace

Task<DohProxyObservation> doh_via_proxy(NetCtx& net,
                                        const proxy::ExitNode& exit_node,
                                        const Site& sp,
                                        resolver::DohServer& doh) {
  DohProxyObservation obs;
  const Site& client = study_client();
  const Site& exit = exit_node.site;
  const Site pop = doh.site();
  const std::string& doh_hostname = doh.hostname();
  const transport::TlsVersion tls = doh.tls_version();

  // The client's timestamps are taken relative to the session's own
  // start rather than the simulation epoch: only the differences
  // T_B-T_A and T_D-T_C enter Equations 6-8, and session-relative
  // values keep the double arithmetic independent of how far the
  // simulated clock has already advanced (required for the sharded
  // campaign's bit-identical-output guarantee).
  const SimTime session_epoch = net.sim.now();

  // Root span plus the three phases of the paper's decomposition
  // (Tables 1-2): tunnel establishment, TLS handshake, resolution. The
  // phases are opened back-to-back, so their durations sum exactly to
  // the root's — what tools/trace_inspect verifies on a capture.
  const auto flow = net.flow({"doh_query", std::nullopt,
                              &MetricCounters::doh_queries, "doh"});

  proxy::Tunnel tunnel(net, client, sp, exit);

  // ---- Steps 1-8: establish the TCP tunnel (phase "tunnel") ---------
  auto tunnel_phase = net.step({"tunnel"});
  const SimTime tunnel_start = net.sim.now();
  obs.inputs.stamps.t_a = ms_between(session_epoch, net.sim.now());

  transport::HttpRequest connect_req;
  connect_req.method = "CONNECT";
  connect_req.target = doh_hostname + ":443";
  connect_req.headers.add("host", connect_req.target);
  co_await tunnel.connect_to_super_proxy(connect_req);  // t1
  co_await tunnel.forward_connect(connect_req);         // t2

  // t3+t4: the exit node resolves the DoH hostname with its default
  // resolver (a cache hit for these ultra-hot names). They are part of
  // tunnel establishment: the lookup exists only to learn where to
  // CONNECT, so it counts as tunnel time.
  const resolver::StubResult boot = co_await resolver::bootstrap(
      net, exit, *exit_node.default_resolver, doh, Phase::kTunnelConnect);
  if (!boot.ok()) co_return obs;
  const double dns_ms = boot.elapsed_ms;
  obs.true_dns_ms = dns_ms;

  // t5+t6: TCP handshake exit <-> PoP.
  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, exit, pop);
  if (!tcp.established) co_return obs;
  obs.true_connect_ms = netsim::to_ms(tcp.handshake_time);

  // t7-t8: tunnel-established reply with the timing headers.
  proxy::TunTimeline tun;
  tun.dns_ms = dns_ms;
  tun.connect_ms = obs.true_connect_ms;
  const std::string ok_wire = co_await tunnel.send_established_reply(tun);

  obs.inputs.stamps.t_b = ms_between(session_epoch, net.sim.now());
  tunnel_phase.finish();
  // Per-phase sim-time series (paper Tables 1-2 decomposition over the
  // session timeline); no-ops unless a series recorder is attached.
  net.series.latency("phase_tunnel_ms", net.labels, net.sim.now(),
                     ms_between(tunnel_start, net.sim.now()));
  if (!read_timelines(ok_wire, obs.inputs.tun, obs.inputs.brightdata_ms)) {
    co_return obs;
  }

  // ---- Steps 9-14: TLS handshake through the tunnel (phase
  // "handshake") -----------------------------------------------------
  // The tunnelled handshake is modelled inline (no transport::
  // tls_handshake call), so this step charges and counts it.
  auto handshake_phase = net.step({"handshake", Phase::kTlsHandshake,
                                   &MetricCounters::tls_handshakes});
  const SimTime handshake_start = net.sim.now();
  obs.inputs.stamps.t_c = ms_between(session_epoch, net.sim.now());

  // The tunnelled ClientHello's loss recovery rides the exit<->PoP leg
  // (the client's own legs were already gated at tunnel establishment).
  {
    const netsim::RetryOutcome hello = co_await net.handshake_gate(
        exit, pop, transport::kHelloRetryPolicy);
    if (!hello.delivered) co_return obs;
  }

  co_await tunnel.send_framed(transport::kClientHelloBytes);  // t9, t10
  SimTime leg_start = net.sim.now();
  co_await tcp.send_framed(transport::kClientHelloBytes);  // t11
  co_await net.process(from_ms(kResolverKeyScheduleMs));
  co_await tcp.recv_framed(transport::kServerHelloBytes);  // t12
  obs.true_tls_ms = ms_between(leg_start, net.sim.now());
  co_await tunnel.recv_framed(transport::kServerHelloBytes);  // t13, t14

  // Record layers of the single end-to-end TLS session, one per segment
  // it crosses: client<->PoP through the tunnel, exit<->PoP on the leg.
  const transport::TlsSession tls_tunnel(tunnel, tls);
  const transport::TlsSession tls_leg(tcp, tls);

  if (tls == transport::TlsVersion::kTls12) {
    // Legacy second round trip: client Finished -> server Finished.
    co_await tunnel.send_framed(transport::kClientFinishedBytes);
    co_await tcp.send_framed(transport::kClientFinishedBytes);
    co_await tls_leg.recv(transport::kServerFinishedBytes);
    co_await tls_tunnel.recv(transport::kServerFinishedBytes);
  }
  handshake_phase.finish();
  net.series.latency("phase_handshake_ms", net.labels, net.sim.now(),
                     ms_between(handshake_start, net.sim.now()));

  // ---- Steps 15-22: the DoH query (phase "resolution") --------------
  auto resolution_phase = net.step({"resolution"});
  const SimTime resolution_start = net.sim.now();
  transport::HttpRequest get_req =
      resolver::doh_get(resolver::make_probe_query(net.rng), doh_hostname);
  get_req.headers.add("accept", "application/dns-message");
  // Client Finished piggybacks on the first record (TLS 1.3).
  const std::size_t get_payload =
      get_req.wire_size() + transport::kClientFinishedBytes;

  co_await tls_tunnel.send(get_payload);  // t15, t16
  leg_start = net.sim.now();
  co_await tls_leg.send(get_payload);  // t17
  const transport::HttpResponse doh_resp = co_await doh.handle(
      net, std::move(get_req), exit_node.prefix);  // t18, t19 inside
  co_await tls_leg.recv(doh_resp);  // t20
  obs.true_query_ms = ms_between(leg_start, net.sim.now());
  co_await tls_tunnel.recv(doh_resp);  // t21, t22

  obs.inputs.stamps.t_d = ms_between(session_epoch, net.sim.now());
  resolution_phase.finish();
  net.series.latency("phase_resolution_ms", net.labels, net.sim.now(),
                     ms_between(resolution_start, net.sim.now()));
  obs.http_status = doh_resp.status;
  obs.ok = doh_resp.status == 200;
  co_return obs;
}

Task<DirectObservation> doh_direct(NetCtx& net, Site vantage,
                                   resolver::RecursiveResolver*
                                       default_resolver,
                                   resolver::DohServer& doh) {
  DirectObservation obs;
  const auto flow = net.flow({"doh_direct", std::nullopt,
                              &MetricCounters::doh_queries, "doh_direct"});

  // Bootstrap (t3+t4). Connection bootstrap, so the lookup's time lands
  // in the TCP handshake phase it gates.
  const resolver::StubResult boot = co_await resolver::bootstrap(
      net, vantage, *default_resolver, doh, Phase::kTcpHandshake);
  if (!boot.ok()) co_return obs;
  obs.dns_ms = boot.elapsed_ms;

  // TCP + TLS.
  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, vantage, doh.site());
  if (!tcp.established) co_return obs;
  obs.connect_ms = netsim::to_ms(tcp.handshake_time);
  const transport::TlsSession session =
      co_await transport::tls_handshake(tcp, doh.tls_version());
  if (!session.established) co_return obs;
  obs.tls_ms = netsim::to_ms(session.handshake_time);

  // The first query, then connection reuse: a second query on the same
  // TLS session.
  double* const samples[] = {&obs.query_ms, &obs.reuse_ms};
  for (double* out_ms : samples) {
    const auto exchange = net.step({"doh_exchange"});
    const SimTime start = net.sim.now();
    const transport::HttpResponse resp = co_await resolver::doh_exchange(
        net, session, doh,
        resolver::doh_get(resolver::make_probe_query(net.rng),
                          doh.hostname()));
    *out_ms = ms_between(start, net.sim.now());
    obs.http_status = resp.status;
    obs.ok = resp.status == 200;
    if (!obs.ok) break;
  }
  co_return obs;
}

Task<Do53ProxyObservation> do53_via_proxy(
    NetCtx& net, const proxy::ExitNode& exit_node, const Site& sp,
    resolver::AuthoritativeServer& authority) {
  Do53ProxyObservation obs;
  const Site& client = study_client();
  const Site& exit = exit_node.site;

  const dns::Message query = resolver::make_probe_query(net.rng);
  const dns::DomainName target_name = query.questions.front().name;

  const auto flow = net.flow({"do53_query", std::nullopt,
                              &MetricCounters::do53_queries, "do53"});

  proxy::Tunnel tunnel(net, client, sp, exit);

  // Steps 1-2: CONNECT through the Super Proxy.
  transport::HttpRequest connect_req;
  connect_req.method = "CONNECT";
  connect_req.target = target_name.to_string() + ":80";
  co_await tunnel.connect_to_super_proxy(connect_req);

  double dns_ms = 0.0;
  if (proxy::resolves_dns_at_super_proxy(exit_node.advertised_iso2)) {
    // BrightData quirk in the 11 Super Proxy countries: the Super Proxy
    // resolves the name itself (datacenter-grade path to the
    // authoritative server), so the header value does NOT reflect the
    // exit node (paper Section 3.5).
    obs.resolved_at_super_proxy = true;
    // The Super Proxy goes straight to the authoritative server for the
    // fresh probe name — a cache miss by construction.
    const auto resolve =
        net.step({"super_proxy_resolve", Phase::kDnsCacheMiss});
    netsim::Path authority_path(net, sp, authority.site());
    authority_path.set_framing(transport::kUdpOverheadBytes,
                               transport::kUdpOverheadBytes);
    const SimTime start = net.sim.now();
    co_await authority_path.send(dns::wire_size(query));
    {
      const auto processing = net.step({.phase = Phase::kServerProcessing});
      co_await net.process(authority.processing_delay());
    }
    const dns::Message auth_resp = authority.handle(query, 0xFFFF);
    co_await authority_path.recv(dns::wire_size(auth_resp));
    dns_ms = ms_between(start, net.sim.now());
    obs.true_do53_ms = std::numeric_limits<double>::quiet_NaN();
    co_await tunnel.forward_connect(connect_req);
  } else {
    co_await tunnel.forward_connect(connect_req);
    // The exit node resolves the fresh name with its default resolver —
    // a guaranteed cache miss recursing to the authoritative server.
    dns_ms = co_await resolve_at(net, exit, exit_node.default_resolver,
                                 query, exit_node.prefix);
    if (dns_ms < 0) co_return obs;
    obs.true_do53_ms = dns_ms;
  }

  // TCP handshake exit <-> web server, then the tunnel reply (t7-t8).
  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, exit, authority.site());
  if (!tcp.established) co_return obs;

  proxy::TunTimeline tun;
  tun.dns_ms = dns_ms;
  tun.connect_ms = netsim::to_ms(tcp.handshake_time);
  const std::string ok_wire = co_await tunnel.send_established_reply(tun);

  if (!read_timelines(ok_wire, obs.tun, obs.brightdata_ms)) co_return obs;

  // Complete the page fetch for realism (GET + 200), not timed.
  const auto fetch = net.step({"page_fetch"});
  transport::HttpRequest get_req;
  get_req.method = "GET";
  get_req.target = "/";
  get_req.headers.add("host", target_name.to_string());
  co_await tunnel.send_framed(get_req.wire_size());
  co_await tcp.send_framed(get_req.wire_size());
  co_await net.process(from_ms(kStaticPageMs));
  co_await tcp.recv_framed(kPageBodyBytes);
  co_await tunnel.recv_framed(kPageBodyBytes);

  obs.ok = true;
  co_return obs;
}

Task<double> do53_direct(NetCtx& net, Site vantage,
                         resolver::RecursiveResolver* resolver,
                         dns::DomainName name) {
  const auto flow = net.flow({"do53_direct", std::nullopt,
                              &MetricCounters::do53_queries, "do53_direct"});
  co_return co_await resolve_at(
      net, vantage, resolver, resolver::make_query(net.rng, std::move(name)));
}

}  // namespace dohperf::measure
