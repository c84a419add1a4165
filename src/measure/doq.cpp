// DNS-over-QUIC (RFC 9250): an extension beyond the paper, whose
// background lists DoQ among the encrypted-DNS protocols.
#include "measure/flows.h"

#include "resolver/stub.h"
#include "transport/quic.h"

namespace dohperf::measure {

netsim::Task<DirectObservation> doq_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, dns::DomainName origin, bool resumed) {
  const auto flow = net.flow({.span = "doq_query", .transport = "doq"});
  DirectObservation obs;
  const netsim::Site pop = doh.site();

  if (!resumed) {
    // Bootstrap the server name via the default resolver (cache hit).
    // Connection bootstrap: attributed to the QUIC handshake it gates.
    const resolver::StubResult boot = co_await resolver::bootstrap(
        net, vantage, *default_resolver, doh,
        dohperf::obs::Phase::kQuicHandshake);
    if (!boot.ok()) co_return obs;
    obs.dns_ms = boot.elapsed_ms;
  }

  const transport::QuicConnection conn =
      resumed ? co_await transport::quic_resume(net, vantage, pop)
              : co_await transport::quic_connect(net, vantage, pop);
  if (!conn.established) co_return obs;
  obs.connect_ms = netsim::to_ms(conn.handshake_time);

  // Each query rides its own QUIC stream; the backend recursion matches
  // DoH's exactly. The connection's short-header overhead prices every
  // record. The first query, then one reusing the connection.
  double* const samples[] = {&obs.query_ms, &obs.reuse_ms};
  for (double* out_ms : samples) {
    const resolver::StubResult answer = co_await resolver::stream_exchange(
        net, conn, doh.resolver(), resolver::make_probe_query(net.rng, origin));
    obs.ok = answer.ok();
    *out_ms = answer.elapsed_ms;
    if (!obs.ok) break;
  }
  co_return obs;
}

}  // namespace dohperf::measure
