// Extension — phase-exact attribution of the cold-vs-warm DoH gap.
//
// The warm-path ladder (ext_encrypted_dns_ladder) shows *that* steady
// state collapses the DoH premium; this bench shows *where* the saved
// milliseconds come from. It reruns the ladder's cold one-shot cells
// (doh_direct / do53_direct) and warm session cells (doh_warm_path /
// do53_warm_path) with an obs::AttributionLedger attached, writes both
// attribution CSVs, and builds the differential waterfalls:
//
//   doh_cold_vs_warm        cold one-shot DoH  vs  warm queries 1+
//   doh_warm_first_vs_rest  warm query 0 (cold start)  vs  queries 1+
//
// Every waterfall's per-phase deltas sum exactly to the end-to-end
// delta (128-bit rational identity, report::make_waterfall). The
// acceptance contract: in the doh_warm_first_vs_rest comparison —
// same cache-hit odds on both sides, so connection bootstrap is the
// *only* thing that changes — at least 80% of the improvement must be
// attributed to handshake + tunnel phases, or the bench exits 1.
// Results land in a "dohperf-attribution-v1" JSON summary.
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "measure/flows.h"
#include "measure/warm.h"
#include "obs/trace_export.h"
#include "report/attribution.h"
#include "resolver/shared_cache.h"
#include "resolver/stub.h"
#include "support.h"

using namespace dohperf;

namespace {

/// The connection-bootstrap phases of the taxonomy: every handshake
/// variant, both resumption flavors, and the proxy tunnel.
constexpr std::array<obs::Phase, 6> kBootstrapPhases = {
    obs::Phase::kTcpHandshake, obs::Phase::kTlsHandshake,
    obs::Phase::kQuicHandshake, obs::Phase::kTlsResume,
    obs::Phase::kQuicResume,   obs::Phase::kTunnelConnect,
};

/// One A-vs-B comparison reduced to its JSON summary fields.
struct Comparison {
  std::string name;
  std::string transport_a;
  std::string transport_b;
  report::Waterfall waterfall;
  double bootstrap_delta_ms = 0.0;  ///< Handshake+tunnel share of delta.
  double bootstrap_share = 0.0;     ///< |bootstrap| / |total|, clamped.
};

Comparison compare(const std::string& name,
                   const report::AttributionTable& table_a,
                   const std::string& transport_a,
                   const report::AttributionTable& table_b,
                   const std::string& transport_b) {
  Comparison c;
  c.name = name;
  c.transport_a = transport_a;
  c.transport_b = transport_b;
  c.waterfall =
      report::make_waterfall(report::aggregate(table_a, transport_a),
                             report::aggregate(table_b, transport_b));
  for (const report::WaterfallStep& step : c.waterfall.steps) {
    for (const obs::Phase phase : kBootstrapPhases) {
      if (step.phase == phase) c.bootstrap_delta_ms += step.delta_ms;
    }
  }
  const double total = std::abs(c.waterfall.delta_total_ms);
  if (total > 0.0) {
    const double share = std::abs(c.bootstrap_delta_ms) / total;
    c.bootstrap_share = share > 1.0 ? 1.0 : share;
  }
  return c;
}

int bench() {
  std::printf("Extension: where the cold-vs-warm DoH milliseconds go\n\n");
  auto& world = benchsupport::Env::instance().world();
  auto& provider = world.providers()[0];

  obs::AttributionLedger cold_ledger, warm_ledger;

  resolver::SharedCacheConfig cache_config;
  cache_config.enabled = true;
  const resolver::SharedCacheModel model(cache_config);
  measure::ReuseConfig reuse;
  reuse.enabled = true;
  reuse.queries_per_session = 8;

  netsim::Rng rng = world.rng().split("attribution");
  for (const auto& iso2 : world.countries()) {
    const proxy::ExitNode* exit = world.brightdata().pick_exit(iso2, rng);
    if (exit == nullptr) continue;
    const std::size_t pop =
        provider.route(exit->site.position, exit->anycast_region, rng);
    auto& server = world.doh_server(0, pop);

    // Each flow records into `ledger` under (provider, country).
    const auto recorded = [&](obs::AttributionLedger& ledger, auto launch) {
      world.run_flow([&](netsim::NetCtx& net) {
        net.attribution.ledger = &ledger;
        net.labels = {provider.name(), iso2};
        return launch(net);
      });
    };

    // --- Cold cells: the ladder's one-shot direct flows. ---------------
    recorded(cold_ledger, [&](netsim::NetCtx& net) {
      return measure::doh_direct(net, exit->site, exit->default_resolver,
                                 server, transport::TlsVersion::kTls13,
                                 world.origin());
    });
    recorded(cold_ledger, [&](netsim::NetCtx& net) {
      return measure::do53_direct(
          net, exit->site, exit->default_resolver,
          resolver::probe_name(net.rng, world.origin()));
    });

    // --- Warm cells: pooled sessions against warmed caches. ------------
    measure::WarmDohParams doh_params;
    doh_params.vantage = exit->site;
    doh_params.default_resolver = exit->default_resolver;
    doh_params.doh = &server;
    doh_params.tls = transport::TlsVersion::kTls13;
    doh_params.origin = world.origin();
    doh_params.cache = &model;
    doh_params.population = cache_config.population;
    doh_params.reuse = reuse;
    recorded(warm_ledger, [&](netsim::NetCtx& net) {
      return measure::doh_warm_path(net, doh_params);
    });
    measure::WarmDo53Params do53_params;
    do53_params.vantage = exit->site;
    do53_params.resolver = exit->default_resolver;
    do53_params.origin = world.origin();
    do53_params.cache = &model;
    do53_params.population =
        cache_config.population * cache_config.isp_share;
    do53_params.reuse = reuse;
    recorded(warm_ledger, [&](netsim::NetCtx& net) {
      return measure::do53_warm_path(net, do53_params);
    });
  }

  // --- Attribution CSV artifacts (loader round-trip on the way). -------
  const std::string& spec_hash = benchsupport::Env::instance().result().hash;
  const std::string stamp =
      "# dohperf-bench ext_attribution hash=" + spec_hash + "\n";
  const auto write_csv = [&](const std::string& name,
                             const obs::AttributionLedger& ledger) {
    const std::string path = benchsupport::out_path(name);
    obs::write_text_file(path, {stamp, report::attribution_csv(ledger).str()});
    std::printf("attribution CSV: %s\n", path.c_str());
    return path;
  };
  write_csv("attribution_cold.csv", cold_ledger);
  write_csv("attribution_warm.csv", warm_ledger);

  const std::optional<report::AttributionTable> cold_table =
      report::load_attribution_csv(
          stamp + report::attribution_csv(cold_ledger).str());
  const std::optional<report::AttributionTable> warm_table =
      report::load_attribution_csv(
          stamp + report::attribution_csv(warm_ledger).str());
  if (!cold_table || !warm_table) {
    std::fprintf(stderr, "FAIL: attribution CSV round-trip rejected\n");
    return 1;
  }

  std::vector<Comparison> comparisons;
  comparisons.push_back(compare("doh_cold_vs_warm", *cold_table,
                                "doh_direct", *warm_table, "doh_warm"));
  comparisons.push_back(compare("doh_warm_first_vs_rest", *warm_table,
                                "doh_warm_first", *warm_table, "doh_warm"));
  comparisons.push_back(compare("do53_cold_vs_warm", *cold_table,
                                "do53_direct", *warm_table, "do53_warm"));

  for (const Comparison& c : comparisons) {
    std::printf("\n== %s ==\n", c.name.c_str());
    std::fputs(report::waterfall_text(c.waterfall, c.transport_a,
                                      c.transport_b)
                   .c_str(),
               stdout);
    std::printf("handshake+tunnel delta: %.3f ms (%.1f%% of %.3f ms)\n",
                c.bootstrap_delta_ms, c.bootstrap_share * 100.0,
                c.waterfall.delta_total_ms);
  }

  // --- JSON summary (dohperf-attribution-v1) ---------------------------
  constexpr double kMinShare = 0.8;
  const Comparison& contract = comparisons[1];  // doh_warm_first_vs_rest
  const bool contract_pass =
      contract.waterfall.exact && contract.waterfall.delta_total_ms < 0.0 &&
      contract.bootstrap_share >= kMinShare;

  std::string json = "{\n  \"schema\": \"dohperf-attribution-v1\",\n";
  json += "  \"spec_hash\": \"" + spec_hash + "\",\n";
  json += "  \"comparisons\": [\n";
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const Comparison& c = comparisons[i];
    const report::Waterfall& w = c.waterfall;
    json += "    {\"name\": \"" + c.name + "\",\n";
    json += "     \"transport_a\": \"" + c.transport_a + "\",\n";
    json += "     \"transport_b\": \"" + c.transport_b + "\",\n";
    json += "     \"flows_a\": " + std::to_string(w.a.flows) + ",\n";
    json += "     \"flows_b\": " + std::to_string(w.b.flows) + ",\n";
    json += "     \"a_total_ms\": " + report::fmt(w.a_total_ms, 3) + ",\n";
    json += "     \"b_total_ms\": " + report::fmt(w.b_total_ms, 3) + ",\n";
    json += "     \"delta_ms\": " + report::fmt(w.delta_total_ms, 3) + ",\n";
    json += "     \"handshake_tunnel_delta_ms\": " +
            report::fmt(c.bootstrap_delta_ms, 3) + ",\n";
    json += "     \"handshake_tunnel_share\": " +
            report::fmt(c.bootstrap_share, 4) + ",\n";
    json += std::string("     \"exact\": ") +
            (w.exact ? "true" : "false") + "}";
    json += i + 1 < comparisons.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"contract\": {\"comparison\": \"" + contract.name + "\", ";
  json += "\"min_share\": " + report::fmt(kMinShare, 2) + ", ";
  json += "\"share\": " + report::fmt(contract.bootstrap_share, 4) + ", ";
  json += std::string("\"pass\": ") + (contract_pass ? "true" : "false");
  json += "}\n}\n";

  const std::string json_path =
      benchsupport::out_path("BENCH_attribution.json");
  obs::write_text_file(json_path, json);
  std::printf("\nSummary JSON: %s\n", json_path.c_str());

  // --- Acceptance contract ---------------------------------------------
  int rc = 0;
  for (const Comparison& c : comparisons) {
    if (!c.waterfall.exact) {
      std::fprintf(stderr,
                   "FAIL: %s waterfall deltas do not sum to the "
                   "end-to-end delta\n",
                   c.name.c_str());
      rc = 1;
    }
  }
  if (!contract_pass) {
    std::fprintf(stderr,
                 "FAIL: %s attributes %.1f%% of the improvement to "
                 "handshake+tunnel (need >= %.0f%%)\n",
                 contract.name.c_str(), contract.bootstrap_share * 100.0,
                 kMinShare * 100.0);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_attribution", bench);
}
