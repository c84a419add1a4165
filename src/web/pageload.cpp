#include "web/pageload.h"

#include <algorithm>
#include <vector>

#include "resolver/stub.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace dohperf::web {
namespace {

using netsim::NetCtx;
using netsim::SimTime;
using netsim::Task;
using netsim::from_ms;
using netsim::ms_between;

/// Browser request-header padding beyond the bare GET line (octets).
constexpr std::size_t kRequestHeaderPadBytes = 64;
/// Web server service time per static object (ms).
constexpr double kStaticContentMs = 0.4;

/// Resolves one fresh name in the requested mode; returns elapsed ms
/// (negative on failure).
Task<double> resolve_name(NetCtx& net, const PageLoadContext& ctx,
                          DnsMode mode, dns::Message query) {
  const SimTime start = net.sim.now();
  if (mode == DnsMode::kDo53) {
    const resolver::StubResult result = co_await resolver::stub_resolve(
        net, ctx.client, *ctx.default_resolver, std::move(query));
    co_return result.ok() ? result.elapsed_ms : -1.0;
  }

  // DoH: an HTTPS GET multiplexed over the (already established) session,
  // modelled as the record layer of that warm session.
  const transport::PathConnection doh_conn{
      netsim::Path(net, ctx.client, ctx.doh->site())};
  const transport::TlsSession tls(doh_conn);
  const transport::HttpResponse resp = co_await resolver::doh_exchange(
      net, tls, *ctx.doh, resolver::doh_get(query, ctx.doh->hostname()));
  co_return resp.status == 200 ? ms_between(start, net.sim.now()) : -1.0;
}

/// One domain's resolution and fetch: its DNS time and its completion
/// offset from page start, both in ms. Not ok when the name did not
/// resolve or the connection to the content host failed.
struct DomainOutcome {
  bool ok = false;
  double dns_ms = -1.0;
  double done_ms = 0.0;
};

Task<DomainOutcome> load_domain(NetCtx& net, const PageLoadContext& ctx,
                                const PageSpec& spec, DnsMode mode,
                                SimTime page_start) {
  DomainOutcome out;
  const dns::Message query =
      resolver::make_probe_query(net.rng, ctx.origin);

  out.dns_ms = co_await resolve_name(net, ctx, mode, query);
  if (out.dns_ms < 0) co_return out;

  // Fetch: connection to the content host, then the objects in sequence.
  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, ctx.client, ctx.web_server);
  if (!tcp.established) co_return out;
  if (spec.https) {
    const transport::TlsSession tls = co_await transport::tls_handshake(tcp);
    if (!tls.established) co_return out;
  }
  // Response records are priced with the TLS record overhead regardless
  // of scheme — the byte model treats object sizes as on-session sizes.
  const transport::TlsSession session(tcp);
  for (int i = 0; i < spec.objects_per_domain; ++i) {
    transport::HttpRequest req;
    req.method = "GET";
    req.target = "/obj" + std::to_string(i);
    co_await tcp.send(req.wire_size() + kRequestHeaderPadBytes);
    co_await net.process(from_ms(kStaticContentMs));
    co_await session.recv(spec.object_bytes);
  }
  out.done_ms = ms_between(page_start, net.sim.now());
  out.ok = true;
  co_return out;
}

}  // namespace

std::string_view to_string(DnsMode mode) {
  switch (mode) {
    case DnsMode::kDo53:
      return "Do53";
    case DnsMode::kDohCold:
      return "DoH (cold session)";
    case DnsMode::kDohWarm:
      return "DoH (warm session)";
  }
  return "?";
}

netsim::Task<PageLoadResult> load_page(netsim::NetCtx& net,
                                       PageLoadContext ctx, PageSpec spec,
                                       DnsMode mode) {
  const auto flow = net.flow({.span = "pageload", .transport = "pageload"});
  PageLoadResult result;
  const SimTime page_start = net.sim.now();

  // A cold DoH session pays bootstrap + TCP + TLS before the first query;
  // when one of them fails, no name can resolve and the page fails.
  if (mode == DnsMode::kDohCold) {
    const resolver::StubResult boot = co_await resolver::bootstrap(
        net, ctx.client, *ctx.default_resolver, *ctx.doh,
        obs::Phase::kTcpHandshake);
    if (!boot.ok()) co_return result;
    const transport::TcpConnection tcp =
        co_await transport::tcp_connect(net, ctx.client, ctx.doh->site());
    if (!tcp.established) co_return result;
    const transport::TlsSession tls = co_await transport::tls_handshake(tcp);
    if (!tls.established) co_return result;
    result.dns_setup_ms = ms_between(page_start, net.sim.now());
  }

  // All domains proceed in parallel (tasks start eagerly).
  std::vector<netsim::Task<DomainOutcome>> tasks;
  tasks.reserve(static_cast<std::size_t>(spec.domains));
  for (int d = 0; d < spec.domains; ++d) {
    tasks.push_back(load_domain(net, ctx, spec, mode, page_start));
  }

  result.ok = true;
  for (auto& task : tasks) {
    const DomainOutcome out = co_await task;
    if (!out.ok) {
      result.ok = false;
      continue;
    }
    result.dns_critical_ms = std::max(result.dns_critical_ms, out.dns_ms);
    result.total_ms = std::max(result.total_ms, out.done_ms);
    result.fetch_critical_ms =
        std::max(result.fetch_critical_ms, out.done_ms - out.dns_ms);
  }
  co_return result;
}

}  // namespace dohperf::web
