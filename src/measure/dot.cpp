#include "measure/dot.h"

#include "dns/wire.h"
#include "resolver/stub.h"
#include "transport/tcp.h"

namespace dohperf::measure {

netsim::Task<DirectDotObservation> dot_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, transport::TlsVersion tls,
    dns::DomainName origin) {
  const auto flow = net.flow({.span = "dot_query", .transport = "dot"});
  DirectDotObservation obs;
  const netsim::Site pop = doh.site();

  // Bootstrap the DoT hostname via the default resolver (cache hit).
  // Connection bootstrap: attributed to the TCP handshake it gates.
  {
    const dohperf::obs::ScopedDnsRedirect boot_attr(
        net.attribution, dohperf::obs::Phase::kTcpHandshake);
    const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
    const resolver::StubResult bootstrap = co_await resolver::stub_resolve(
        net, vantage, *default_resolver,
        dns::Message::make_query(id,
                                 dns::DomainName::parse(doh.hostname())));
    if (!bootstrap.ok()) co_return obs;
    obs.dns_ms = bootstrap.elapsed_ms;
  }

  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, vantage, pop);
  if (!tcp.established) co_return obs;
  obs.connect_ms = netsim::to_ms(tcp.handshake_time);
  const transport::TlsSession session =
      co_await transport::tls_handshake(tcp, tls);
  if (!session.established) co_return obs;
  obs.tls_ms = netsim::to_ms(session.handshake_time);

  // Queries ride the TLS session with a two-octet length prefix; the
  // backend recursion is identical to DoH's.
  const transport::LengthPrefixedChannel channel(session);
  auto one_query = [&](double& out_ms) -> netsim::Task<void> {
    const dns::Message query = resolver::make_probe_query(net.rng, origin);
    const netsim::SimTime start = net.sim.now();
    co_await channel.send(dns::wire_size(query));
    const dns::Message answer =
        co_await doh.resolver().resolve(net, query);
    co_await channel.recv(dns::wire_size(answer));
    obs.ok = answer.header.rcode == dns::Rcode::kNoError;
    out_ms = netsim::ms_between(start, net.sim.now());
  };

  co_await one_query(obs.query_ms);
  if (!obs.ok) co_return obs;
  co_await one_query(obs.reuse_ms);
  co_return obs;
}

}  // namespace dohperf::measure
