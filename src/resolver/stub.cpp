#include "resolver/stub.h"

#include <chrono>
#include <string_view>
#include <vector>

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

namespace {

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

dns::DomainName probe_name(netsim::Rng& rng,
                           const dns::DomainName& origin) {
  char buf[kUuidChars];
  return origin.with_subdomain(format_uuid(rng, buf));
}

dns::Message make_probe_query(netsim::Rng& rng,
                              const dns::DomainName& origin) {
  const auto id = static_cast<std::uint16_t>(rng.next() & 0xFFFF);
  return dns::Message::make_query(id, probe_name(rng, origin),
                                  dns::RecordType::kA);
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

}  // namespace dohperf::resolver
