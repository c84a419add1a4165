// Micro-benchmarks: DNS wire codec (encode/decode, name compression) and
// the base64url codec used by the DoH GET binding.
#include <benchmark/benchmark.h>

#include "dns/message.h"
#include "dns/wire.h"
#include "netsim/random.h"
#include "resolver/stub.h"
#include "transport/base64.h"
#include "transport/http.h"

namespace {

using namespace dohperf;

// The campaign's typical name: a 36-character UUID label under the zone.
constexpr const char* kProbeName =
    "f47ac10b-58cc-4372-a567-0e02b2c3d479.a.com";

dns::Message sample_response(int answers) {
  const auto origin = dns::DomainName::parse("a.com");
  dns::Message query = dns::Message::make_query(
      0x4242, origin.with_subdomain("f47ac10b-58cc-4372-a567-0e02b2c3d479"));
  dns::Message resp = dns::Message::make_response(query);
  for (int i = 0; i < answers; ++i) {
    dns::ResourceRecord rr;
    rr.name = query.questions.front().name;
    rr.ttl = 60;
    rr.rdata = dns::ARecord{0xC0A80000u + static_cast<std::uint32_t>(i)};
    resp.answers.push_back(std::move(rr));
  }
  dns::ResourceRecord ns;
  ns.name = origin;
  ns.ttl = 86400;
  ns.rdata = dns::NsRecord{origin.with_subdomain("ns1")};
  resp.authorities.push_back(std::move(ns));
  return resp;
}

void BM_EncodeQuery(benchmark::State& state) {
  const auto msg = dns::Message::make_query(
      1, dns::DomainName::parse("some-uuid-label.a.com"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_EncodeQuery);

void BM_EncodeResponse(benchmark::State& state) {
  const auto msg = sample_response(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_EncodeResponse)->Arg(1)->Arg(4)->Arg(16);

// What the simulator pays to price a message: the encoder's size-only
// pass over the same responses as BM_EncodeResponse.
void BM_WireSize(benchmark::State& state) {
  const auto msg = sample_response(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::wire_size(msg));
  }
}
BENCHMARK(BM_WireSize)->Arg(1)->Arg(4)->Arg(16);

void BM_DecodeResponse(benchmark::State& state) {
  const auto wire = dns::encode(sample_response(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DecodeResponse)->Arg(1)->Arg(4)->Arg(16);

void BM_RoundTrip(benchmark::State& state) {
  const auto msg = sample_response(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(dns::encode(msg)));
  }
}
BENCHMARK(BM_RoundTrip);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DomainName::parse(kProbeName));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCopy(benchmark::State& state) {
  const auto name = dns::DomainName::parse(kProbeName);
  for (auto _ : state) {
    dns::DomainName copy = name;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_NameCopy);

// A cache probe: equality against the same name in another letter case,
// plus the hash that picks the bucket.
void BM_NameEqualHash(benchmark::State& state) {
  const auto name = dns::DomainName::parse(kProbeName);
  const auto upper =
      dns::DomainName::parse("F47AC10B-58CC-4372-A567-0E02B2C3D479.A.COM");
  const dns::DomainNameHash hash;
  for (auto _ : state) {
    benchmark::DoNotOptimize(name == upper);
    benchmark::DoNotOptimize(hash(name));
  }
}
BENCHMARK(BM_NameEqualHash);

void BM_UuidLabel(benchmark::State& state) {
  netsim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver::uuid_label(rng));
  }
}
BENCHMARK(BM_UuidLabel);

void BM_Base64UrlEncode(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport::base64url_encode(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Base64UrlEncode)->Arg(64)->Arg(512)->Arg(4096);

void BM_Base64UrlDecode(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  const std::string encoded = transport::base64url_encode(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport::base64url_decode(encoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Base64UrlDecode)->Arg(64)->Arg(512)->Arg(4096);

void BM_DohGetTarget(benchmark::State& state) {
  netsim::Rng rng(2);
  for (auto _ : state) {
    const auto query = resolver::make_probe_query(rng);
    benchmark::DoNotOptimize(resolver::doh_get_target(query));
  }
}
BENCHMARK(BM_DohGetTarget);

// The client's per-DoH-query work in the proxied flow: a fresh probe
// query, its GET request with the flow's headers, and the request's size.
void BM_ProbeQuery(benchmark::State& state) {
  netsim::Rng rng(2);
  const std::string hostname = "cloudflare-dns.com";
  for (auto _ : state) {
    const auto query = resolver::make_probe_query(rng);
    transport::HttpRequest req;
    req.method = "GET";
    req.target = resolver::doh_get_target(query);
    req.headers.add("host", hostname);
    req.headers.add("accept", "application/dns-message");
    benchmark::DoNotOptimize(req.wire_size());
  }
}
BENCHMARK(BM_ProbeQuery);

}  // namespace
