#include "measure/doq.h"

#include "dns/wire.h"
#include "resolver/stub.h"

namespace dohperf::measure {

netsim::Task<DirectDoqObservation> doq_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, dns::DomainName origin, bool resumed) {
  const auto flow = net.flow({.span = "doq_query", .transport = "doq"});
  DirectDoqObservation obs;
  const netsim::Site pop = doh.site();

  if (!resumed) {
    // Bootstrap the server name via the default resolver (cache hit).
    // Connection bootstrap: attributed to the QUIC handshake it gates.
    const dohperf::obs::ScopedDnsRedirect boot_attr(
        net.attribution, dohperf::obs::Phase::kQuicHandshake);
    const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
    const resolver::StubResult bootstrap = co_await resolver::stub_resolve(
        net, vantage, *default_resolver,
        dns::Message::make_query(id,
                                 dns::DomainName::parse(doh.hostname())));
    if (!bootstrap.ok()) co_return obs;
    obs.dns_ms = bootstrap.elapsed_ms;
  }

  const transport::QuicConnection conn =
      resumed ? co_await transport::quic_resume(net, vantage, pop)
              : co_await transport::quic_connect(net, vantage, pop);
  if (!conn.established) co_return obs;
  obs.connect_ms = netsim::to_ms(conn.handshake_time);

  // Each query rides its own QUIC stream; the backend recursion matches
  // DoH's exactly. The connection's short-header overhead prices every
  // record.
  auto one_query = [&](double& out_ms) -> netsim::Task<void> {
    const dns::Message query = resolver::make_probe_query(net.rng, origin);
    const netsim::SimTime start = net.sim.now();
    co_await conn.send(dns::wire_size(query));
    const dns::Message answer = co_await doh.resolver().resolve(net, query);
    co_await conn.recv(dns::wire_size(answer));
    obs.ok = answer.header.rcode == dns::Rcode::kNoError;
    out_ms = netsim::ms_between(start, net.sim.now());
  };

  co_await one_query(obs.query_ms);
  if (!obs.ok) co_return obs;
  co_await one_query(obs.reuse_ms);
  co_return obs;
}

}  // namespace dohperf::measure
