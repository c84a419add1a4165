// Extension — the encrypted-DNS ladder: Do53, DoT, DoH, DoQ, and
// 0-RTT-resumed DoQ measured from the same vantage points against the
// same provider (Cloudflare). The paper's background section enumerates
// these protocols; this bench quantifies the handshake ladder the
// standards imply:
//   Do53: 0 extra round trips;
//   DoT/DoH: TCP (1 RTT) + TLS 1.3 (1 RTT) before the first query;
//   DoQ: combined handshake (1 RTT);
//   DoQ resumed: 0-RTT.
//
// The cold ladder above is the paper's worst case. The warm extension
// below replays Böttger et al.'s steady state: persistent pooled
// connections (session tickets included) against a Zipf-warmed shared
// PoP cache for DoH, versus per-ISP distributed caches for Do53. It
// emits a "dohperf-warm-ladder-v1" JSON summary and *fails* (exit 1)
// unless (a) the warm DoH-Do53 delta shrinks to less than half the cold
// delta and (b) the centralized hit-rate-vs-population curve is
// monotone nondecreasing — the acceptance contract of the model.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure/flows.h"
#include "measure/warm.h"
#include "obs/trace_export.h"
#include "resolver/shared_cache.h"
#include "resolver/stub.h"
#include "support.h"

using namespace dohperf;

namespace {

/// Latencies of a warm session split by query index: `first` is index 0
/// (prices its own cold start), `warm` is everything after.
struct WarmSplit {
  std::vector<double> first;
  std::vector<double> warm;
  std::uint64_t shared_hits = 0;
  std::uint64_t stub_hits = 0;
  std::uint64_t queries = 0;
  client::PoolStats pool;

  void fold(const measure::WarmPathObservation& obs) {
    for (const measure::WarmQueryObservation& q : obs.queries) {
      if (!q.valid()) continue;
      (q.query_index == 0 ? first : warm).push_back(q.ms);
      ++queries;
      if (q.shared_hit) ++shared_hits;
      if (q.stub_hit) ++stub_hits;
    }
    pool.cold += obs.pool.cold;
    pool.reused += obs.pool.reused;
    pool.resumed += obs.pool.resumed;
    pool.evictions += obs.pool.evictions;
    pool.expired += obs.pool.expired;
  }
};

/// A direct flow's first-query and reuse times, when it succeeded.
void take(const measure::DirectObservation& obs, std::vector<double>& first,
          std::vector<double>& reuse) {
  if (!obs.ok) return;
  first.push_back(obs.first_ms());
  reuse.push_back(obs.reuse_ms);
}

int bench() {
  std::printf("Extension: the encrypted-DNS ladder (Cloudflare PoPs)\n\n");
  auto& world = benchsupport::Env::instance().world();
  auto& provider = world.providers()[0];

  std::vector<double> do53, dot1, dotr, doh1, dohr, doq1, doqr, doq0;
  netsim::Rng rng = world.rng().split("ladder");
  for (const auto& iso2 : world.countries()) {
    const proxy::ExitNode* exit = world.brightdata().pick_exit(iso2, rng);
    if (exit == nullptr) continue;
    const std::size_t pop =
        provider.route(exit->site.position, exit->anycast_region, rng);
    auto& server = world.doh_server(0, pop);

    const double do53_ms = world.run_flow([&](netsim::NetCtx& net) {
      return measure::do53_direct(
          net, exit->site, exit->default_resolver,
          resolver::probe_name(net.rng, world.origin()));
    });
    if (do53_ms >= 0) do53.push_back(do53_ms);
    take(world.run_flow([&](netsim::NetCtx& net) {
           return measure::dot_direct(net, exit->site, exit->default_resolver,
                                      server, transport::TlsVersion::kTls13,
                                      world.origin());
         }),
         dot1, dotr);
    take(world.run_flow([&](netsim::NetCtx& net) {
           return measure::doh_direct(net, exit->site, exit->default_resolver,
                                      server, transport::TlsVersion::kTls13,
                                      world.origin());
         }),
         doh1, dohr);
    take(world.run_flow([&](netsim::NetCtx& net) {
           return measure::doq_direct(net, exit->site, exit->default_resolver,
                                      server, world.origin(),
                                      /*resumed=*/false);
         }),
         doq1, doqr);
    const auto doq_resumed = world.run_flow([&](netsim::NetCtx& net) {
      return measure::doq_direct(net, exit->site, exit->default_resolver,
                                 server, world.origin(), /*resumed=*/true);
    });
    if (doq_resumed.ok) doq0.push_back(doq_resumed.first_ms());
  }

  report::Table table("Median resolution times (ms), one client sampled "
                      "per country");
  table.header({"Protocol", "first query", "reuse"});
  table.row({"Do53 (default resolver)", report::fmt(stats::median(do53), 0),
             "-"});
  table.row({"DoT (RFC 7858)", report::fmt(stats::median(dot1), 0),
             report::fmt(stats::median(dotr), 0)});
  table.row({"DoH (RFC 8484)", report::fmt(stats::median(doh1), 0),
             report::fmt(stats::median(dohr), 0)});
  table.row({"DoQ (RFC 9250)", report::fmt(stats::median(doq1), 0),
             report::fmt(stats::median(doqr), 0)});
  table.row({"DoQ resumed (0-RTT)", report::fmt(stats::median(doq0), 0),
             "-"});
  table.caption(
      "DoQ saves one round trip versus DoT/DoH on fresh connections; "
      "0-RTT resumption removes the remaining handshake entirely, leaving "
      "only the query leg — the best case encrypted DNS can reach.");
  std::fputs(table.render().c_str(), stdout);

  // ---- Warm extension: pooled connections + shared caches -----------
  resolver::SharedCacheConfig cache_config;
  cache_config.enabled = true;
  const resolver::SharedCacheModel model(cache_config);

  measure::ReuseConfig reuse;
  reuse.enabled = true;
  reuse.queries_per_session = 8;

  WarmSplit warm_doh, warm_do53;
  netsim::Rng warm_rng = world.rng().split("warm-ladder");
  for (const auto& iso2 : world.countries()) {
    const proxy::ExitNode* exit =
        world.brightdata().pick_exit(iso2, warm_rng);
    if (exit == nullptr) continue;
    const std::size_t pop = provider.route(
        exit->site.position, exit->anycast_region, warm_rng);
    auto& server = world.doh_server(0, pop);

    measure::WarmDohParams doh_params;
    doh_params.vantage = exit->site;
    doh_params.default_resolver = exit->default_resolver;
    doh_params.doh = &server;
    doh_params.tls = transport::TlsVersion::kTls13;
    doh_params.origin = world.origin();
    doh_params.cache = &model;
    doh_params.population = cache_config.population;
    doh_params.reuse = reuse;
    warm_doh.fold(world.run_flow([&](netsim::NetCtx& net) {
      return measure::doh_warm_path(net, doh_params);
    }));
    measure::WarmDo53Params do53_params;
    do53_params.vantage = exit->site;
    do53_params.resolver = exit->default_resolver;
    do53_params.origin = world.origin();
    do53_params.cache = &model;
    do53_params.population =
        cache_config.population * cache_config.isp_share;
    do53_params.reuse = reuse;
    warm_do53.fold(world.run_flow([&](netsim::NetCtx& net) {
      return measure::do53_warm_path(net, do53_params);
    }));
  }

  const double cold_doh = stats::median(doh1);
  const double cold_do53 = stats::median(do53);
  const double cold_delta = cold_doh - cold_do53;
  const double warm_doh_ms = stats::median(warm_doh.warm);
  const double warm_do53_ms = stats::median(warm_do53.warm);
  const double warm_delta = warm_doh_ms - warm_do53_ms;
  const double shrink = cold_delta > 0.0 ? warm_delta / cold_delta : 0.0;

  report::Table warm_table(
      "Warm path: pooled connections + shared caches (8-query sessions)");
  warm_table.header({"Protocol", "query 0 (cold start)", "queries 1+",
                     "cold one-shot"});
  warm_table.row({"DoH (pool + tickets + PoP cache)",
                  report::fmt(stats::median(warm_doh.first), 0),
                  report::fmt(warm_doh_ms, 0), report::fmt(cold_doh, 0)});
  warm_table.row({"Do53 (ISP cache)",
                  report::fmt(stats::median(warm_do53.first), 0),
                  report::fmt(warm_do53_ms, 0), report::fmt(cold_do53, 0)});
  warm_table.caption(
      "Steady state pays the handshake ladder once per session, not per "
      "query, and the centralized PoP cache absorbs most recursions — "
      "the DoH-Do53 gap collapses versus the cold one-shot flows.");
  std::fputs(warm_table.render().c_str(), stdout);

  // Centralized hit rate versus population (analytic, so the curve is
  // noise-free); the committed artifact for the acceptance gate.
  const double populations[] = {1e3, 1e4, 1e5, 1e6, 1e7};
  std::vector<double> curve;
  for (const double population : populations) {
    curve.push_back(model.expected_hit_rate(population));
  }

  std::printf("\nCentralized-cache hit rate vs population:\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::printf("  %10.0f users -> %.4f\n", populations[i], curve[i]);
  }
  std::printf("cold DoH-Do53 delta: %.1f ms, warm: %.1f ms (%.0f%%)\n",
              cold_delta, warm_delta, shrink * 100.0);

  // ---- JSON summary (dohperf-warm-ladder-v1) ------------------------
  std::string json = "{\n  \"schema\": \"dohperf-warm-ladder-v1\",\n";
  json += "  \"spec_hash\": \"" + benchsupport::Env::instance().result().hash +
          "\",\n";
  json += "  \"cold\": {\n";
  json += "    \"doh_median_ms\": " + report::fmt(cold_doh, 3) + ",\n";
  json += "    \"do53_median_ms\": " + report::fmt(cold_do53, 3) + ",\n";
  json += "    \"delta_ms\": " + report::fmt(cold_delta, 3) + "\n  },\n";
  json += "  \"warm\": {\n";
  json += "    \"doh_median_ms\": " + report::fmt(warm_doh_ms, 3) + ",\n";
  json += "    \"do53_median_ms\": " + report::fmt(warm_do53_ms, 3) + ",\n";
  json += "    \"delta_ms\": " + report::fmt(warm_delta, 3) + ",\n";
  json += "    \"shrink\": " + report::fmt(shrink, 4) + "\n  },\n";
  json += "  \"counters\": {\n";
  json += "    \"doh_queries\": " + std::to_string(warm_doh.queries) + ",\n";
  json += "    \"do53_queries\": " + std::to_string(warm_do53.queries) +
          ",\n";
  json += "    \"shared_cache_hits\": " +
          std::to_string(warm_doh.shared_hits + warm_do53.shared_hits) +
          ",\n";
  json += "    \"stub_cache_hits\": " +
          std::to_string(warm_doh.stub_hits + warm_do53.stub_hits) + ",\n";
  json += "    \"pool_cold\": " + std::to_string(warm_doh.pool.cold) + ",\n";
  json += "    \"pool_reuses\": " + std::to_string(warm_doh.pool.reused) +
          ",\n";
  json += "    \"pool_resumptions\": " +
          std::to_string(warm_doh.pool.resumed) + "\n  },\n";
  json += "  \"curve\": [\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    json += "    {\"population\": " + report::fmt(populations[i], 0) +
            ", \"expected_hit_rate\": " + report::fmt(curve[i], 6) + "}";
    json += i + 1 < curve.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const std::string json_path =
      benchsupport::out_path("ext_warm_ladder.json");
  obs::write_text_file(json_path, json);
  std::printf("\nSummary JSON: %s\n", json_path.c_str());

  // ---- Acceptance contract ------------------------------------------
  int rc = 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i] < curve[i - 1]) {
      std::fprintf(stderr,
                   "FAIL: hit rate not monotone in population "
                   "(%.4f at %.0f < %.4f at %.0f)\n",
                   curve[i], populations[i], curve[i - 1],
                   populations[i - 1]);
      rc = 1;
    }
  }
  if (!(warm_delta < 0.5 * cold_delta)) {
    std::fprintf(stderr,
                 "FAIL: warm DoH-Do53 delta %.1f ms did not shrink below "
                 "half the cold delta %.1f ms\n",
                 warm_delta, cold_delta);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_encrypted_dns_ladder", bench);
}
