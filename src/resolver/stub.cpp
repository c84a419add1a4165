#include "resolver/stub.h"

#include <chrono>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/wire.h"
#include "dns/zone.h"
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

namespace {

/// The message id of a client query: 16 random bits.
std::uint16_t query_id(netsim::Rng& rng) {
  return static_cast<std::uint16_t>(rng.next() & 0xFFFF);
}

constexpr std::size_t kUuidChars = 36;

/// Writes `v`'s low `digits` hex digits, lowercase, zero-padded (printf's
/// "%0<digits>x").
char* put_hex(char* out, std::uint64_t v, int digits) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kHex[v & 0xF];
    v >>= 4;
  }
  return out + digits;
}

/// The UUID label, formatted on the caller's stack.
std::string_view format_uuid(netsim::Rng& rng, char (&buf)[kUuidChars]) {
  const std::uint64_t hi = rng.next();
  const std::uint64_t lo = rng.next();
  // Version/variant bits set per RFC 4122 for cosmetic fidelity:
  // "%08x-%04x-4%03x-%04x-%012llx".
  char* out = put_hex(buf, hi >> 32, 8);
  *out++ = '-';
  out = put_hex(out, (hi >> 16) & 0xFFFF, 4);
  *out++ = '-';
  *out++ = '4';
  out = put_hex(out, hi & 0x0FFF, 3);
  *out++ = '-';
  out = put_hex(out, 0x8000 | ((lo >> 48) & 0x3FFF), 4);
  *out++ = '-';
  put_hex(out, lo & 0xFFFFFFFFFFFFULL, 12);
  return {buf, kUuidChars};
}

}  // namespace

std::string uuid_label(netsim::Rng& rng) {
  char buf[kUuidChars];
  return std::string(format_uuid(rng, buf));
}

dns::DomainName probe_name(netsim::Rng& rng) {
  char buf[kUuidChars];
  return dns::study_origin().with_subdomain(format_uuid(rng, buf));
}

dns::Message make_query(netsim::Rng& rng, dns::DomainName name) {
  return dns::Message::make_query(query_id(rng), std::move(name));
}

dns::Message make_probe_query(netsim::Rng& rng) {
  const std::uint16_t id = query_id(rng);
  return dns::Message::make_query(id, probe_name(rng));
}

std::string doh_get_target(const dns::Message& query) {
  // Filled and read back before returning: never held across a co_await.
  thread_local std::vector<std::uint8_t> wire;
  dns::encode_into(query, wire);
  constexpr std::string_view kPrefix = "/dns-query?dns=";
  std::string target;
  target.reserve(kPrefix.size() + (wire.size() + 2) / 3 * 4);
  target += kPrefix;
  transport::base64url_append(wire, target);
  return target;
}

transport::HttpRequest doh_get(const dns::Message& query,
                               const std::string& host) {
  transport::HttpRequest request;
  request.method = "GET";
  request.target = doh_get_target(query);
  request.headers.add("host", host);
  return request;
}

netsim::Task<StubResult> bootstrap(netsim::NetCtx& net,
                                   const netsim::Site& vantage,
                                   RecursiveResolver& resolver,
                                   const DohServer& doh, obs::Phase gates) {
  const auto step = net.step({"bootstrap_dns"});
  dns::Message query =
      make_query(net.rng, dns::DomainName::parse(doh.hostname()));
  const obs::ScopedDnsRedirect redirect(net.attribution, gates);
  co_return co_await stub_resolve(net, vantage, resolver, std::move(query));
}

netsim::Task<transport::HttpResponse> doh_exchange(
    netsim::NetCtx& net, const transport::Connection& session,
    DohServer& doh, transport::HttpRequest request) {
  co_await session.send(request);
  transport::HttpResponse response =
      co_await doh.handle(net, std::move(request));
  co_await session.recv(response);
  co_return response;
}

netsim::Task<StubResult> stream_exchange(netsim::NetCtx& net,
                                         const transport::Connection& stream,
                                         RecursiveResolver& resolver,
                                         dns::Message query) {
  StubResult result;
  const netsim::SimTime start = net.sim.now();
  co_await stream.send(dns::wire_size(query));
  const dns::Message answer = co_await resolver.resolve(net, std::move(query));
  co_await stream.recv(dns::wire_size(answer));
  result.rcode = answer.header.rcode;
  result.elapsed_ms = netsim::ms_between(start, net.sim.now());
  co_return result;
}

}  // namespace dohperf::resolver
