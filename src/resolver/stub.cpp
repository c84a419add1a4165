#include "resolver/stub.h"

#include <cstdio>

#include <chrono>

#include "dns/wire.h"
#include "netsim/path.h"
#include "transport/base64.h"
#include "transport/connection.h"

namespace dohperf::resolver {

netsim::Task<StubResult> stub_resolve(netsim::NetCtx& net,
                                      const netsim::Site& vantage,
                                      RecursiveResolver& resolver,
                                      dns::Message query,
                                      std::uint32_t client_address) {
  StubResult result;
  // Provisionally a miss; the recursive resolver relabels every live
  // dns_cache_miss frame to dns_cache_hit when its cache answers.
  const auto step = net.step({"stub_resolve", obs::Phase::kDnsCacheMiss,
                              &obs::MetricCounters::dns_queries});
  const netsim::SimTime start = net.sim.now();
  netsim::Path path(net, vantage, resolver.site());
  path.set_framing(transport::kUdpOverheadBytes,
                   transport::kUdpOverheadBytes);
  // Lost UDP datagrams are retransmitted on an exponential timer — the
  // classic Do53 tail. A dead path (blackout episode) exhausts the
  // schedule and surfaces as a timeout the caller can observe.
  const netsim::RetryOutcome delivery =
      co_await path.deliver_with_retry(kStubRetryPolicy);
  result.retransmits = delivery.retransmits;
  if (!delivery.delivered) {
    result.timed_out = true;
    result.elapsed_ms = netsim::ms_between(start, net.sim.now());
    co_return result;
  }
  const std::size_t query_size = dns::wire_size(query);
  co_await path.send(query_size);
  const dns::Message resp =
      co_await resolver.resolve(net, std::move(query), client_address);
  co_await path.recv(dns::wire_size(resp));
  result.rcode = resp.header.rcode;
  result.elapsed_ms = netsim::ms_between(start, net.sim.now());
  co_return result;
}

std::string uuid_label(netsim::Rng& rng) {
  const std::uint64_t hi = rng.next();
  const std::uint64_t lo = rng.next();
  char buf[40];
  // Version/variant bits set per RFC 4122 for cosmetic fidelity.
  std::snprintf(buf, sizeof buf,
                "%08x-%04x-4%03x-%04x-%012llx",
                static_cast<unsigned>(hi >> 32),
                static_cast<unsigned>((hi >> 16) & 0xFFFF),
                static_cast<unsigned>(hi & 0x0FFF),
                static_cast<unsigned>(0x8000 | ((lo >> 48) & 0x3FFF)),
                static_cast<unsigned long long>(lo & 0xFFFFFFFFFFFFULL));
  return buf;
}

dns::Message make_probe_query(netsim::Rng& rng,
                              const dns::DomainName& origin) {
  const auto id = static_cast<std::uint16_t>(rng.next() & 0xFFFF);
  return dns::Message::make_query(id, origin.with_subdomain(uuid_label(rng)),
                                  dns::RecordType::kA);
}

std::string doh_get_target(const dns::Message& query) {
  const auto wire = dns::encode(query);
  return "/dns-query?dns=" + transport::base64url_encode(wire);
}

}  // namespace dohperf::resolver
