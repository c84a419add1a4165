#include "measure/warm.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/wire.h"
#include "resolver/stub.h"
#include "transport/tcp.h"

namespace dohperf::measure {
namespace {

using netsim::NetCtx;
using netsim::SimTime;
using netsim::Site;
using netsim::Task;
using netsim::ms_between;
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

/// One query the stub cache did not answer, as the session loop hands it
/// to the transport that takes it to the resolver.
struct WarmQuery {
  const dns::DomainName& name;  ///< The popular name the draw selected.
  const resolver::SharedCacheLookup& look;
  /// The resolver's shared cache holds the name (a model is attached and
  /// its draw hit): the transport prices a hit exchange and answers it
  /// through answer_from_cache().
  bool shared_hit = false;
  std::uint32_t hit_ttl = 0;  ///< The record's lifetime left at its age.
  WarmQueryObservation& observation;
  /// The shared hit's answer; the loop stores its records in the stub.
  dns::Message answer{};

  /// The shared cache's answer to `query`: the record at its sampled age.
  /// It is synthesized instead of routed through the shard's resolver,
  /// whose mutable cache state must never couple sessions.
  const dns::Message& answer_from_cache(dns::Message query) {
    answer = cached_answer(std::move(query), name, hit_ttl, look.rank);
    return answer;
  }
};

/// The root step and the flow transports one warm path files under.
struct WarmNames {
  dohperf::obs::Step root;
  std::string_view first_flow;  ///< Query 0, always cold.
  std::string_view flow;        ///< The warm remainder.
};

constexpr WarmNames kDohNames{
    {"doh_warm_path", std::nullopt, &MetricCounters::doh_queries},
    "doh_warm_first",
    "doh_warm"};
constexpr WarmNames kDo53Names{
    {"do53_warm_path", std::nullopt, &MetricCounters::do53_queries},
    "do53_warm_first",
    "do53_warm"};

/// The warm session both paths run: queries_per_session Zipf-popular
/// queries, each answered from the client's stub cache when it can be
/// and otherwise taken to the resolver by `reach` — a callable
/// `Task<bool>(WarmQuery&)`, false when the query failed, which ends the
/// session. `params` is a WarmDohParams or a WarmDo53Params.
template <class Params, class Reach>
Task<WarmPathObservation> run_session(NetCtx& net, const Params& params,
                                      const WarmNames& names, Reach reach) {
  WarmPathObservation obs;
  // The root only spans and counts the session; each query below is its
  // own attributed flow.
  const auto root = net.step(names.root);

  dns::Cache stub_cache(kStubCacheEntries);
  const double think_ms = netsim::to_ms(params.reuse.think_time);
  const double ttl_s =
      params.cache != nullptr ? params.cache->config().ttl_s : 0.0;

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
    // its own attributed flow: index 0 (always cold) separates from the
    // warm remainder.
    const SimTime start = net.sim.now();
    const auto flow =
        net.flow({.transport = i == 0 ? names.first_flow : names.flow});
    WarmQuery query{.name = name,
                    .look = look,
                    .shared_hit = params.cache != nullptr && look.hit,
                    .hit_ttl = remaining_ttl(ttl_s, look.age_s),
                    .observation = q};
    const bool answered = co_await reach(query);
    if (!answered) {
      obs.queries.push_back(q);
      co_return obs;
    }
    if (query.shared_hit) {
      q.shared_hit = true;
      net.note({&MetricCounters::shared_cache_hits});
      stub_cache.insert(net.sim.now(), name, dns::RecordType::kA,
                        std::move(query.answer.answers));
    } else if (params.cache != nullptr) {
      net.note({&MetricCounters::shared_cache_misses});
      stub_cache.insert(
          net.sim.now(), name, dns::RecordType::kA,
          cached_answer(resolver::make_query(net.rng, name), name,
                        static_cast<std::uint32_t>(ttl_s), look.rank)
              .answers);
    }
    q.ms = ms_between(start, net.sim.now());
    obs.queries.push_back(q);
  }

  obs.ok = true;
  co_return obs;
}

}  // namespace

Task<WarmPathObservation> doh_warm_path(NetCtx& net, WarmDohParams params) {
  const Site& pop = params.doh->site();
  const std::string& doh_hostname = params.doh->hostname();
  client::ConnectionPool pool(params.reuse.pool);
  // The actual transports live here so they survive loop iterations; a
  // TlsSession references its lower connection, so it resets first.
  std::optional<transport::TcpConnection> tcp;
  std::optional<transport::TlsSession> tls;

  WarmPathObservation obs = co_await run_session(
      net, params, kDohNames, [&](WarmQuery& query) -> Task<bool> {
        // The pool outcome decides which handshake phase the setup lands
        // in (cold: tcp+tls handshake, resume: tls_resume, reuse:
        // neither).
        const client::Acquire how = pool.acquire(doh_hostname, net.sim.now());
        if (how == client::Acquire::kReuse) {
          query.observation.connection_reused = true;
        } else {
          tls.reset();
          tcp.reset();
          if (how == client::Acquire::kCold) {
            // Bootstrap the resolver's address (a hot name — normally a
            // cache hit at the default resolver).
            const resolver::StubResult boot = co_await resolver::bootstrap(
                net, params.vantage, *params.default_resolver, *params.doh,
                Phase::kTcpHandshake);
            if (!boot.ok()) co_return false;
          }
          tcp.emplace(
              co_await transport::tcp_connect(net, params.vantage, pop));
          if (!tcp->established) co_return false;
          if (how == client::Acquire::kResume) {
            query.observation.session_resumed = true;
            tls.emplace(co_await transport::tls_resume(*tcp, params.tls));
          } else {
            tls.emplace(co_await transport::tls_handshake(*tcp, params.tls));
          }
          if (!tls->established) co_return false;
          pool.established(doh_hostname, net.sim.now());
        }

        // A whole hit exchange counts as cache-hit resolution time (the
        // frontend's compute carves itself out via process_at below).
        const auto exchange = net.step(
            {"doh_warm_exchange",
             query.shared_hit ? std::optional(Phase::kDnsCacheHit)
                              : std::nullopt});
        if (query.shared_hit) {
          // Shared-cache hit: the frontend answers without recursing,
          // priced exactly like RecursiveResolver's real hit path.
          dns::Message hit = resolver::make_query(net.rng, query.name);
          co_await tls->send(resolver::doh_get(hit, doh_hostname));
          co_await net.process_at(pop,
                                  params.doh->resolver().cache_hit_cost());
          co_await tls->recv(resolver::dns_message_response(
              query.answer_from_cache(std::move(hit)), doh_hostname));
        } else {
          // Miss (or no model): full recursion. The wire query is a
          // unique cache-buster so the shard-local resolver cache stays
          // out of the outcome — the popular name only lives in this
          // session's stub.
          const transport::HttpResponse resp =
              co_await resolver::doh_exchange(
                  net, *tls, *params.doh,
                  resolver::doh_get(
                      resolver::make_probe_query(net.rng, params.origin),
                      doh_hostname));
          if (resp.status != 200) co_return false;
        }
        pool.touch(doh_hostname, net.sim.now());
        co_return true;
      });
  obs.pool = pool.stats();
  co_return obs;
}

Task<WarmPathObservation> do53_warm_path(NetCtx& net,
                                         WarmDo53Params params) {
  co_return co_await run_session(
      net, params, kDo53Names, [&](WarmQuery& query) -> Task<bool> {
        if (!query.shared_hit) {
          const resolver::StubResult result = co_await resolver::stub_resolve(
              net, params.vantage, *params.resolver,
              resolver::make_probe_query(net.rng, params.origin));
          co_return result.ok();
        }
        // ISP-cache hit: one UDP round trip plus the frontend hit cost —
        // same pricing as the resolver's real hit path, same synthesized
        // (decayed) answer as the DoH side. The round trip is cache-hit
        // resolution time end to end.
        const auto hit_step = net.step(
            {.phase = Phase::kDnsCacheHit,
             .counter = &MetricCounters::dns_queries});
        dns::Message hit = resolver::make_query(net.rng, query.name);
        const Site& site = params.resolver->site();
        co_await net.hop(params.vantage, site,
                         dns::wire_size(hit) + transport::kUdpOverheadBytes);
        co_await net.process_at(site, params.resolver->cache_hit_cost());
        co_await net.hop(
            site, params.vantage,
            dns::wire_size(query.answer_from_cache(std::move(hit))) +
                transport::kUdpOverheadBytes);
        co_return true;
      });
}

}  // namespace dohperf::measure
