// Extension — cache hits under centralisation (paper Section 7: "it
// would be interesting to study whether a more centralized cache
// implementation would lead to more or less cache hits").
//
// Workload: clients of one region issue Zipf-distributed queries over a
// catalog of popular names. Two deployments answer them:
//   * distributed: each country's ISP resolver caches independently
//     (Do53 today);
//   * centralised: one provider PoP cache serves the whole region (DoH's
//     effective topology).
// The centralised cache aggregates demand, so it stays warm for far more
// of the tail — at the price of a longer network path per query.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "dns/wire.h"
#include "stats/summary.h"
#include "stats/zipf.h"
#include "support.h"

using namespace dohperf;

namespace {

struct CacheOutcome {
  double hit_rate;
  double median_ms;
};

/// Runs `queries` Zipf lookups from random clients of `countries`,
/// resolving at either the client's own ISP resolver or a shared PoP
/// backend.
CacheOutcome run_workload(world::WorldModel& world,
                          const std::vector<std::string>& countries,
                          bool centralised, int queries,
                          std::size_t catalog) {
  netsim::Rng rng =
      world.rng().split(centralised ? "cache-central" : "cache-dist");
  const stats::ZipfSampler zipf(catalog);
  resolver::RecursiveResolver* central = nullptr;
  if (centralised) {
    // The Cloudflare PoP nearest to the first country's centroid.
    const geo::Country* country = geo::find_country(countries.front());
    const std::size_t pop =
        world.providers()[0].nearest(country->centroid);
    central = &world.doh_server(0, pop).resolver();
  }

  const std::uint64_t hits_before =
      central ? central->stats().cache_hits : 0;
  std::uint64_t distributed_hits = 0, distributed_queries = 0;
  std::vector<double> latencies;

  for (int q = 0; q < queries; ++q) {
    const auto& iso2 = countries[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(countries.size()) - 1))];
    const proxy::ExitNode* client = world.brightdata().pick_exit(iso2, rng);
    if (client == nullptr) continue;
    resolver::RecursiveResolver* resolver =
        centralised ? central : client->default_resolver;

    const auto name = world.origin().with_subdomain(
        "popular-" + std::to_string(zipf(rng)));
    const std::uint64_t before = resolver->stats().cache_hits;

    const netsim::SimTime start = world.sim().now();
    world.run_flow([&](netsim::NetCtx& net) {
      return [](netsim::NetCtx& net_ctx, netsim::Site vantage,
                resolver::RecursiveResolver* r,
                dns::Message query) -> netsim::Task<void> {
        const std::size_t bytes = dns::wire_size(query) + 28;
        co_await net_ctx.hop(vantage, r->site(), bytes);
        const dns::Message resp =
            co_await r->resolve(net_ctx, std::move(query));
        co_await net_ctx.hop(r->site(), vantage, dns::wire_size(resp) + 28);
      }(net, client->site, resolver,
        dns::Message::make_query(static_cast<std::uint16_t>(rng.next()),
                                 name));
    });
    latencies.push_back(netsim::ms_between(start, world.sim().now()));

    if (!centralised) {
      ++distributed_queries;
      distributed_hits += resolver->stats().cache_hits - before;
    }
  }

  CacheOutcome out;
  if (centralised) {
    out.hit_rate = static_cast<double>(central->stats().cache_hits -
                                       hits_before) /
                   latencies.size();
  } else {
    out.hit_rate = static_cast<double>(distributed_hits) /
                   std::max<std::uint64_t>(1, distributed_queries);
  }
  out.median_ms = stats::median_inplace(latencies);
  return out;
}

int bench() {
  std::printf(
      "Extension: cache-hit behaviour, distributed ISP caches vs one "
      "centralised PoP cache\n\n");
  auto& world = benchsupport::Env::instance().world();

  // A European neighbourhood sharing a Cloudflare PoP region.
  const std::vector<std::string> countries{"PL", "CZ", "SK", "HU", "AT",
                                           "SI", "HR", "RO"};
  report::Table table("Zipf workload over a popular-name catalog "
                      "(TTL 60 s)");
  table.header({"Catalog size", "ISP caches: hit rate", "median ms",
                "central PoP: hit rate", "median ms"});
  for (const std::size_t catalog : {50u, 500u, 5000u}) {
    const auto distributed =
        run_workload(world, countries, false, 1500, catalog);
    const auto centralised =
        run_workload(world, countries, true, 1500, catalog);
    table.row({std::to_string(catalog),
               report::fmt_percent(distributed.hit_rate),
               report::fmt(distributed.median_ms, 0),
               report::fmt_percent(centralised.hit_rate),
               report::fmt(centralised.median_ms, 0)});
  }
  table.caption(
      "The centralised cache aggregates the region's demand and stays "
      "warm deeper into the tail; whether that wins overall depends on "
      "the extra distance to the PoP — exactly the trade-off the paper "
      "flags as future work.");
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_cache_hits", bench);
}
