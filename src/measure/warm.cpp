#include "measure/warm.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/wire.h"
#include "resolver/stub.h"
#include "transport/http.h"
#include "transport/tcp.h"

namespace dohperf::measure {
namespace {

using netsim::NetCtx;
using netsim::SimTime;
using netsim::Site;
using netsim::Task;
using netsim::ms_between;
using ScopedDnsRedirect = dohperf::obs::ScopedDnsRedirect;
using MetricCounters = dohperf::obs::MetricCounters;
using Phase = dohperf::obs::Phase;

/// Client-local (OS/browser) stub cache capacity. Tiny on purpose: a
/// session only ever touches the head of the popularity catalog.
constexpr std::size_t kStubCacheEntries = 512;

/// A deterministic address for popularity rank `r` (content of the
/// synthesized answers; never routed on).
std::uint32_t rank_address(std::size_t r) {
  return 0x0A000000u + static_cast<std::uint32_t>(r & 0xFFFFFFu);
}

/// The answer the shared cache would serve for `name` at `ttl` seconds
/// of remaining lifetime.
dns::Message cached_answer(dns::Message query, const dns::DomainName& name,
                           std::uint32_t ttl, std::size_t rank) {
  dns::Message answer = dns::Message::make_response(std::move(query));
  answer.answers.push_back(dns::ResourceRecord{
      name, dns::RecordClass::kIn, ttl, dns::ARecord{rank_address(rank)}});
  return answer;
}

std::uint32_t remaining_ttl(double ttl_s, double age_s) {
  const double left = ttl_s - age_s;
  return left > 0.0 ? static_cast<std::uint32_t>(left) : 0u;
}

}  // namespace

Task<WarmPathObservation> doh_warm_path(NetCtx& net, WarmDohParams params) {
  WarmPathObservation obs;
  const Site pop = params.doh->site();
  const std::string& doh_hostname = params.doh->hostname();
  // The root only spans and counts the session; each query below is its
  // own attributed flow.
  const auto root =
      net.step({"doh_warm_path", std::nullopt, &MetricCounters::doh_queries});

  client::ConnectionPool pool(params.reuse.pool);
  dns::Cache stub_cache(kStubCacheEntries);
  const double think_ms = netsim::to_ms(params.reuse.think_time);
  const double ttl_s =
      params.cache != nullptr ? params.cache->config().ttl_s : 0.0;

  // The actual transports live here so they survive loop iterations; a
  // TlsSession references its lower connection, so it resets first.
  std::optional<transport::TcpConnection> tcp;
  std::optional<transport::TlsSession> tls;

  const int n = std::max(1, params.reuse.queries_per_session);
  for (int i = 0; i < n; ++i) {
    // One direct child of the root per query iteration (think time
    // included): consecutive spans abut, so the children tile the root
    // exactly and tools/trace_inspect's phase-sum check passes on
    // warm-path traces too.
    const auto warm_query = net.step({"warm_query"});
    if (i > 0 && think_ms > 0.0) {
      co_await net.process(netsim::from_ms(net.rng.exponential(think_ms)));
    }
    WarmQueryObservation q;
    q.query_index = i;

    // Popularity draw; without a model every query is a full recursion.
    resolver::SharedCacheLookup look;
    if (params.cache != nullptr) {
      look = params.cache->sample(net.rng, params.population);
    }
    const dns::DomainName name = params.origin.with_subdomain(
        "popular-" + std::to_string(look.rank));

    // Client-local cache first: a hit never touches the network (and
    // does not consume the connection).
    if (params.cache != nullptr &&
        stub_cache.lookup(net.sim.now(), name, dns::RecordType::kA)) {
      q.stub_hit = true;
      q.ms = 0.0;
      net.note({&MetricCounters::stub_cache_hits});
      obs.queries.push_back(q);
      continue;
    }

    // The clock starts before any connection work, so query 0 (and any
    // query that has to reconnect) prices its own setup. Each query is
    // its own attributed flow — index 0 (always cold) separates from the
    // warm remainder, and the pool outcome decides which handshake phase
    // the setup lands in (cold: tcp+tls handshake, resume: tls_resume,
    // reuse: neither).
    const SimTime start = net.sim.now();
    const auto flow =
        net.flow({.transport = i == 0 ? "doh_warm_first" : "doh_warm"});
    const client::Acquire how = pool.acquire(doh_hostname, net.sim.now());
    if (how == client::Acquire::kReuse) {
      q.connection_reused = true;
    } else {
      tls.reset();
      tcp.reset();
      if (how == client::Acquire::kCold) {
        // Bootstrap the resolver's address (a hot name — normally a
        // cache hit at the default resolver). Attribution-wise the
        // lookup is connection bootstrap, so it lands in the TCP
        // handshake phase it gates rather than in the DNS phases.
        const ScopedDnsRedirect boot_attr(net.attribution,
                                          Phase::kTcpHandshake);
        const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
        const resolver::StubResult boot = co_await resolver::stub_resolve(
            net, params.vantage, *params.default_resolver,
            dns::Message::make_query(id, dns::DomainName::parse(doh_hostname)));
        if (!boot.ok()) {
          obs.queries.push_back(q);
          obs.pool = pool.stats();
          co_return obs;
        }
      }
      tcp.emplace(co_await transport::tcp_connect(net, params.vantage, pop));
      if (!tcp->established) {
        obs.queries.push_back(q);
        obs.pool = pool.stats();
        co_return obs;
      }
      if (how == client::Acquire::kResume) {
        q.session_resumed = true;
        tls.emplace(co_await transport::tls_resume(*tcp, params.tls));
      } else {
        tls.emplace(co_await transport::tls_handshake(*tcp, params.tls));
      }
      if (!tls->established) {
        obs.queries.push_back(q);
        obs.pool = pool.stats();
        co_return obs;
      }
      pool.established(doh_hostname, net.sim.now());
    }

    const bool shared_hit = params.cache != nullptr && look.hit;
    // A whole hit exchange counts as cache-hit resolution time (the
    // frontend's compute carves itself out via process_at below).
    const auto exchange = net.step(
        {"doh_warm_exchange",
         shared_hit ? std::optional(Phase::kDnsCacheHit) : std::nullopt});
    if (shared_hit) {
      // Shared-cache hit: the frontend answers without recursing,
      // priced exactly like RecursiveResolver's real hit path. The
      // answer is synthesized (TTL decayed to the record's sampled age)
      // instead of routed through the shard's resolver, whose mutable
      // cache state must never couple sessions.
      const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
      dns::Message query = dns::Message::make_query(id, name);
      transport::HttpRequest req;
      req.method = "GET";
      req.target = resolver::doh_get_target(query);
      req.headers.add("host", doh_hostname);
      co_await tls->send(req);
      co_await net.process_at(pop, params.doh->resolver().cache_hit_cost());
      const dns::Message answer = cached_answer(
          std::move(query), name, remaining_ttl(ttl_s, look.age_s),
          look.rank);
      co_await tls->recv(
          resolver::dns_message_response(answer, doh_hostname));
      q.shared_hit = true;
      net.note({&MetricCounters::shared_cache_hits});
      stub_cache.insert(net.sim.now(), name, dns::RecordType::kA,
                        answer.answers);
    } else {
      // Miss (or no model): full recursion. The wire query is a unique
      // cache-buster so the shard-local resolver cache stays out of the
      // outcome — the popular `name` only lives in this session's stub.
      const dns::Message query =
          resolver::make_probe_query(net.rng, params.origin);
      transport::HttpRequest req;
      req.method = "GET";
      req.target = resolver::doh_get_target(query);
      req.headers.add("host", doh_hostname);
      co_await tls->send(req);
      const transport::HttpResponse resp =
          co_await params.doh->handle(net, std::move(req));
      co_await tls->recv(resp);
      if (resp.status != 200) {
        obs.queries.push_back(q);
        obs.pool = pool.stats();
        co_return obs;
      }
      if (params.cache != nullptr) {
        net.note({&MetricCounters::shared_cache_misses});
        const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
        stub_cache.insert(
            net.sim.now(), name, dns::RecordType::kA,
            cached_answer(dns::Message::make_query(id, name), name,
                          static_cast<std::uint32_t>(ttl_s), look.rank)
                .answers);
      }
    }
    pool.touch(doh_hostname, net.sim.now());
    q.ms = ms_between(start, net.sim.now());
    obs.queries.push_back(q);
  }

  obs.ok = true;
  obs.pool = pool.stats();
  co_return obs;
}

Task<WarmPathObservation> do53_warm_path(NetCtx& net,
                                         WarmDo53Params params) {
  WarmPathObservation obs;
  const auto root = net.step(
      {"do53_warm_path", std::nullopt, &MetricCounters::do53_queries});

  dns::Cache stub_cache(kStubCacheEntries);
  const double think_ms = netsim::to_ms(params.reuse.think_time);
  const double ttl_s =
      params.cache != nullptr ? params.cache->config().ttl_s : 0.0;

  const int n = std::max(1, params.reuse.queries_per_session);
  for (int i = 0; i < n; ++i) {
    // Same per-iteration tiling as the DoH side (trace_inspect contract).
    const auto warm_query = net.step({"warm_query"});
    if (i > 0 && think_ms > 0.0) {
      co_await net.process(netsim::from_ms(net.rng.exponential(think_ms)));
    }
    WarmQueryObservation q;
    q.query_index = i;

    resolver::SharedCacheLookup look;
    if (params.cache != nullptr) {
      look = params.cache->sample(net.rng, params.population);
    }
    const dns::DomainName name = params.origin.with_subdomain(
        "popular-" + std::to_string(look.rank));

    if (params.cache != nullptr &&
        stub_cache.lookup(net.sim.now(), name, dns::RecordType::kA)) {
      q.stub_hit = true;
      q.ms = 0.0;
      net.note({&MetricCounters::stub_cache_hits});
      obs.queries.push_back(q);
      continue;
    }

    const SimTime start = net.sim.now();
    const auto flow =
        net.flow({.transport = i == 0 ? "do53_warm_first" : "do53_warm"});
    if (params.cache != nullptr && look.hit) {
      // ISP-cache hit: one UDP round trip plus the frontend hit cost —
      // same pricing as the resolver's real hit path, same synthesized
      // (decayed) answer as the DoH side. The round trip is cache-hit
      // resolution time end to end.
      const auto hit = net.step({.phase = Phase::kDnsCacheHit,
                                 .counter = &MetricCounters::dns_queries});
      const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
      dns::Message query = dns::Message::make_query(id, name);
      const Site& site = params.resolver->site();
      co_await net.hop(params.vantage, site,
                       dns::wire_size(query) + transport::kUdpOverheadBytes);
      co_await net.process_at(site, params.resolver->cache_hit_cost());
      const dns::Message answer = cached_answer(
          std::move(query), name, remaining_ttl(ttl_s, look.age_s),
          look.rank);
      co_await net.hop(site, params.vantage,
                       dns::wire_size(answer) + transport::kUdpOverheadBytes);
      q.shared_hit = true;
      net.note({&MetricCounters::shared_cache_hits});
      stub_cache.insert(net.sim.now(), name, dns::RecordType::kA,
                        answer.answers);
    } else {
      const resolver::StubResult result = co_await resolver::stub_resolve(
          net, params.vantage, *params.resolver,
          resolver::make_probe_query(net.rng, params.origin));
      if (!result.ok()) {
        obs.queries.push_back(q);
        co_return obs;
      }
      if (params.cache != nullptr) {
        net.note({&MetricCounters::shared_cache_misses});
        const auto id = static_cast<std::uint16_t>(net.rng.next() & 0xFFFF);
        stub_cache.insert(
            net.sim.now(), name, dns::RecordType::kA,
            cached_answer(dns::Message::make_query(id, name), name,
                          static_cast<std::uint32_t>(ttl_s), look.rank)
                .answers);
      }
    }
    q.ms = ms_between(start, net.sim.now());
    obs.queries.push_back(q);
  }

  obs.ok = true;
  co_return obs;
}

}  // namespace dohperf::measure
