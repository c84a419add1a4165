// DNS-over-TLS (RFC 7858): an extension beyond the paper, which focused
// on DoH but compares against the DoT literature in its related work.
#include "measure/flows.h"

#include "resolver/stub.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace dohperf::measure {

netsim::Task<DirectObservation> dot_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh) {
  const auto flow = net.flow({.span = "dot_query", .transport = "dot"});
  DirectObservation obs;

  // Bootstrap the DoT hostname via the default resolver (cache hit).
  // Connection bootstrap: attributed to the TCP handshake it gates.
  const resolver::StubResult boot = co_await resolver::bootstrap(
      net, vantage, *default_resolver, doh,
      dohperf::obs::Phase::kTcpHandshake);
  if (!boot.ok()) co_return obs;
  obs.dns_ms = boot.elapsed_ms;

  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, vantage, doh.site());
  if (!tcp.established) co_return obs;
  obs.connect_ms = netsim::to_ms(tcp.handshake_time);
  const transport::TlsSession session =
      co_await transport::tls_handshake(tcp, doh.tls_version());
  if (!session.established) co_return obs;
  obs.tls_ms = netsim::to_ms(session.handshake_time);

  // Queries ride the TLS session with a two-octet length prefix; the
  // backend recursion is identical to DoH's. The first query, then one
  // reusing the session.
  const transport::LengthPrefixedChannel channel(session);
  double* const samples[] = {&obs.query_ms, &obs.reuse_ms};
  for (double* out_ms : samples) {
    const resolver::StubResult answer = co_await resolver::stream_exchange(
        net, channel, doh.resolver(), resolver::make_probe_query(net.rng));
    obs.ok = answer.ok();
    *out_ms = answer.elapsed_ms;
    if (!obs.ok) break;
  }
  co_return obs;
}

}  // namespace dohperf::measure
