// Renderer byte pins: one small two-shard campaign with faults, SLOs, the
// shared cache and connection reuse, rendered through every report
// renderer and compared against FNV-1a digests of the expected bytes.
//
// The determinism suite proves the outputs agree across shard counts;
// this suite proves they agree with themselves across code changes, so a
// rewrite of a renderer (or of the shard merge feeding it) that moves a
// single output byte fails here, naming the output that moved. It also
// checks that scenario::write_outputs writes exactly the provenance
// stamp followed by each rendering.
//
// The flows outside the campaign get the same treatment: every flow entry
// point runs once in a small world with spans, metrics and an attribution
// ledger attached, and its Perfetto trace, metrics CSV and attribution
// CSV are pinned, so a rewrite of the instrumentation that moves one span,
// counter or phase microsecond names the flow it moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "client/policy.h"
#include "measure/flows.h"
#include "measure/warm.h"
#include "obs/trace_export.h"
#include "report/anomalies.h"
#include "report/attribution.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/timeseries.h"
#include "resolver/shared_cache.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "web/pageload.h"
#include "world/world_model.h"
#include "scratch_path.h"

namespace dohperf {
namespace {

constexpr const char* kSpec =
    "name = \"render-digests\"\n"
    "sink = \"streaming\"\n"
    "[world]\n"
    "seed = 7\n"
    "client_scale = 0.03\n"
    "[campaign]\n"
    "threads = 2\n"
    "runs_per_client = 1\n"
    "atlas_measurements_per_country = 10\n"
    "session_spacing_ms = 60000\n"
    "[faults]\n"
    "loss_spike_probability = 0.25\n"
    "brownout_probability = 0.25\n"
    "provider_outage_period_ms = 3600000\n"
    "provider_outage_duration_ms = 600000\n"
    "provider_outage_stagger_ms = 900000\n"
    "regional_blackout_period_ms = 7200000\n"
    "regional_blackout_duration_ms = 300000\n"
    "[slo]\n"
    "enabled = true\n"
    "window_ms = 300000\n"
    "p99_objective_ms = 2000\n"
    "[cache]\n"
    "enabled = true\n"
    "[reuse]\n"
    "enabled = true\n"
    "queries_per_session = 4\n";

/// FNV-1a 64 of `data`, as 16 lowercase hex digits.
std::string fnv1a_hex(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// A streaming campaign over five countries whose fig5 CSV has rows
/// (kSpec's analysis filter keeps no country at its scale).
constexpr const char* kFig5Spec =
    "name = \"render-digests-fig5\"\n"
    "sink = \"streaming\"\n"
    "[world]\n"
    "seed = 7\n"
    "client_scale = 0.3\n"
    "only_countries = [\"US\", \"DE\", \"BR\", \"IN\", \"JP\"]\n"
    "[campaign]\n"
    "threads = 2\n";

scenario::RunResult run_spec(const char* text) {
  const scenario::SpecParseResult parsed =
      scenario::parse_spec(text, "<render-digests>");
  if (!parsed.ok()) throw std::runtime_error(parsed.error);
  return scenario::run(parsed.doc.base);
}

const scenario::RunResult& result() {
  static const scenario::RunResult r = run_spec(kSpec);
  return r;
}

/// Every retained anomaly's Perfetto trace JSON, in retention order.
std::string anomaly_traces(const obs::FlightRecorder& recorder) {
  std::string traces;
  for (const auto& [key, rec] : recorder.retained()) {
    traces += obs::perfetto_trace_json(rec.spans);
  }
  return traces;
}

/// The OpenMetrics document write_outputs produces: the series
/// exposition with the SLO and attribution gauge blocks spliced in
/// before "# EOF".
std::string openmetrics_document(const scenario::RunResult& r) {
  std::string om = report::openmetrics_text(r.series);
  const std::string gauges = report::slo_openmetrics_text(r.slo) +
                             report::attribution_openmetrics_text(
                                 r.attribution);
  om.insert(om.rfind("# EOF\n"), gauges);
  return om;
}

TEST(RenderDigestTest, CampaignExercisesEveryRenderer) {
  const scenario::RunResult& r = result();
  EXPECT_EQ(r.stats.shards, 2);
  EXPECT_FALSE(r.series.counters().empty());
  EXPECT_FALSE(r.series.latencies().empty());
  EXPECT_FALSE(r.slo.empty());
  EXPECT_FALSE(r.slo_alerts.empty());
  EXPECT_FALSE(r.attribution.empty());
  EXPECT_GT(r.metrics.counters.shared_cache_hits, 0u);
  EXPECT_GT(r.metrics.counters.pool_reuses, 0u);
  EXPECT_GT(r.metrics.counters.loss_retries, 0u);
  EXPECT_EQ(r.anomalies.retained().size(), 64u);
}

TEST(RenderDigestTest, OutputsMatchPinnedDigests) {
  const scenario::RunResult& r = result();
  struct Pin {
    const char* output;
    std::string text;
    const char* digest;
  };
  const Pin pins[] = {
      {"series_csv", report::timeseries_csv(r.series).str(),
       "39fe35538ecdbff0"},
      {"openmetrics", openmetrics_document(r), "edc4f60df2dd99fb"},
      {"availability_csv", report::availability_csv(r.slo).str(),
       "8c27acf7e0a6e0af"},
      {"slo_alerts_csv", report::slo_alerts_csv(r.slo_alerts).str(),
       "a8d242dde95ffcd8"},
      {"attribution_csv", report::attribution_csv(r.attribution).str(),
       "85bb44dad761224f"},
      {"metrics_csv", report::metrics_csv(r.metrics).str(),
       "072d095cfdae5ded"},
      {"fig4_csv", scenario::fig4_csv(r.sink).str(), "6c11e9dde0fdaa68"},
      {"anomaly_index_csv", report::anomaly_index_csv(r.anomalies).str(),
       "c73944be4a189e4d"},
      {"anomaly_traces", anomaly_traces(r.anomalies), "06e7139497249788"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(fnv1a_hex(pin.text), pin.digest)
        << pin.output << " moved (" << pin.text.size() << " bytes)";
  }
}

TEST(RenderDigestTest, StreamingFig5MatchesPinnedDigest) {
  const scenario::RunResult r = run_spec(kFig5Spec);
  const report::CsvWriter fig5 = scenario::fig5_csv(r.sink);
  EXPECT_EQ(fig5.row_count(), 20u);
  EXPECT_EQ(fnv1a_hex(fig5.str()), "5bc19d21293a27bc")
      << "fig5_csv moved (" << fig5.str().size() << " bytes)";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(RenderDigestTest, WrittenFilesAreTheStampedRenderings) {
  scenario::RunResult r = result();
  const std::filesystem::path dir =
      tests::scratch_path("dohperf_render_digest");
  scenario::OutputsSpec& out = r.spec.outputs;
  out.series_csv = (dir / "series.csv").string();
  out.openmetrics = (dir / "series.om").string();
  out.availability_csv = (dir / "availability.csv").string();
  out.slo_alerts_csv = (dir / "alerts.csv").string();
  out.attribution_csv = (dir / "attribution.csv").string();
  out.metrics_csv = (dir / "metrics.csv").string();
  out.fig4_csv = (dir / "fig4.csv").string();
  scenario::write_outputs(r);

  const std::string stamp = scenario::provenance_line(r);
  EXPECT_EQ(read_file(out.series_csv),
            stamp + report::timeseries_csv(r.series).str());
  EXPECT_EQ(read_file(out.openmetrics), stamp + openmetrics_document(r));
  EXPECT_EQ(read_file(out.availability_csv),
            stamp + report::availability_csv(r.slo).str());
  EXPECT_EQ(read_file(out.slo_alerts_csv),
            stamp + report::slo_alerts_csv(r.slo_alerts).str());
  EXPECT_EQ(read_file(out.attribution_csv),
            stamp + report::attribution_csv(r.attribution).str());
  EXPECT_EQ(read_file(out.metrics_csv),
            stamp + report::metrics_csv(r.metrics).str());
  EXPECT_EQ(read_file(out.fig4_csv), stamp + scenario::fig4_csv(r.sink).str());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- flows

/// A fresh two-country world per flow: SE resolves at the exit node, DE
/// is a Super Proxy country (and hosts Atlas probes).
std::unique_ptr<world::WorldModel> flow_world() {
  world::WorldConfig config;
  config.seed = 11;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "DE"};
  return std::make_unique<world::WorldModel>(config);
}

const proxy::ExitNode* exit_in(world::WorldModel& world,
                               const std::string& iso2) {
  netsim::Rng rng = world.rng().split("flow-pin-" + iso2);
  const proxy::ExitNode* exit = world.brightdata().pick_exit(iso2, rng);
  if (exit == nullptr) throw std::runtime_error("no exit in " + iso2);
  return exit;
}

/// Runs one flow on `net` (the world's context with every sink attached)
/// and checks its result.
using FlowRun =
    std::function<netsim::Task<void>(world::WorldModel&, netsim::NetCtx&)>;

const resolver::SharedCacheModel& cache_model() {
  static const resolver::SharedCacheModel model = [] {
    resolver::SharedCacheConfig config;
    config.enabled = true;
    return resolver::SharedCacheModel(config);
  }();
  return model;
}

measure::DohProxyParams doh_proxy_params(world::WorldModel& world,
                                         const proxy::ExitNode* exit) {
  measure::DohProxyParams params;
  params.client = world.measurement_client();
  params.super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;
  params.exit = exit;
  params.doh = &world.doh_server(0, 0);
  params.tls = transport::TlsVersion::kTls13;
  params.origin = world.origin();
  return params;
}

measure::Do53ProxyParams do53_proxy_params(world::WorldModel& world,
                                           const proxy::ExitNode* exit) {
  measure::Do53ProxyParams params;
  params.client = world.measurement_client();
  params.super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;
  params.exit = exit;
  params.origin = world.origin();
  params.authority = &world.authority();
  return params;
}

web::PageLoadContext page_context(world::WorldModel& world,
                                  const proxy::ExitNode* exit) {
  web::PageLoadContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world.doh_server(0, 0);
  ctx.web_server = world.authority().site();
  ctx.origin = world.origin();
  return ctx;
}

client::PolicyContext policy_context(world::WorldModel& world,
                                     const proxy::ExitNode* exit) {
  client::PolicyContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world.doh_server(0, 0);
  ctx.origin = world.origin();
  return ctx;
}

struct FlowDigests {
  std::string trace;
  std::string metrics;
  std::string attribution;
};

/// Runs `launch` in a fresh world under (provider 0, `country`) labels
/// and digests what the three sinks recorded.
FlowDigests digest_flow(const std::string& country, const FlowRun& launch) {
  const std::unique_ptr<world::WorldModel> world = flow_world();
  obs::SpanContext spans;
  obs::Metrics metrics;
  obs::AttributionLedger ledger;
  world->run_flow([&](netsim::NetCtx& net) {
    net.spans = &spans;
    net.metrics = &metrics;
    net.attribution.ledger = &ledger;
    net.labels = {world->providers()[0].name(), country};
    return launch(*world, net);
  });
  EXPECT_EQ(spans.open_count(), 0u) << "a span was left open";
  return {fnv1a_hex(obs::perfetto_trace_json(spans)),
          fnv1a_hex(report::metrics_csv(metrics).str()),
          fnv1a_hex(report::attribution_csv(ledger).str())};
}

TEST(RenderDigestTest, FlowEntryPointsMatchPinnedDigests) {
  struct Case {
    const char* flow;
    const char* country;
    FlowRun launch;
    FlowDigests pinned;
  };
  const Case cases[] = {
      {"doh_via_proxy", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const auto result = co_await measure::doh_via_proxy(
             net, doh_proxy_params(w, exit_in(w, "SE")));
         EXPECT_TRUE(result.ok);
       },
       {"0d6c1c56d265e6b1", "f6f57a956092fff9", "939c4826bb53ce33"}},
      {"do53_via_proxy (exit resolves)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const auto result = co_await measure::do53_via_proxy(
             net, do53_proxy_params(w, exit_in(w, "SE")));
         EXPECT_TRUE(result.ok);
         EXPECT_FALSE(result.resolved_at_super_proxy);
       },
       {"931f9bda937a97ec", "4aa0b835f1001c94", "75e082b55b233e9d"}},
      {"do53_via_proxy (Super Proxy resolves)", "DE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const auto result = co_await measure::do53_via_proxy(
             net, do53_proxy_params(w, exit_in(w, "DE")));
         EXPECT_TRUE(result.ok);
         EXPECT_TRUE(result.resolved_at_super_proxy);
       },
       {"d5b6eeba2ec59802", "916f4267554ab27e", "6ead51e5fa7d8a5f"}},
      {"doh_direct", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         const auto result = co_await measure::doh_direct(
             net, exit->site, exit->default_resolver, w.doh_server(0, 0),
             transport::TlsVersion::kTls13, w.origin());
         EXPECT_TRUE(result.ok);
       },
       {"cfc610e9a7e8896d", "ebc40665b8e7e97c", "dd2a41f018fc024f"}},
      {"do53_direct", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         const double result = co_await measure::do53_direct(
             net, exit->site, exit->default_resolver,
             w.origin().with_subdomain("pin"));
         EXPECT_GT(result, 0.0);
       },
       {"a2d1e31b443ff4f8", "f301190ef111dccb", "174d42f07a209d35"}},
      {"dot_direct", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         const auto result = co_await measure::dot_direct(
             net, exit->site, exit->default_resolver, w.doh_server(0, 0),
             transport::TlsVersion::kTls13, w.origin());
         EXPECT_TRUE(result.ok);
       },
       {"e5281e5a077bcebd", "b27434ba82b0b96d", "edbfaf0a00928dd3"}},
      {"doq_direct (fresh)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         const auto result = co_await measure::doq_direct(
             net, exit->site, exit->default_resolver, w.doh_server(0, 0),
             w.origin(), /*resumed=*/false);
         EXPECT_TRUE(result.ok);
       },
       {"ddcb2961543dd261", "57617f71d02b3c12", "e2767541d2b865b7"}},
      {"doq_direct (resumed)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         const auto result = co_await measure::doq_direct(
             net, exit->site, exit->default_resolver, w.doh_server(0, 0),
             w.origin(), /*resumed=*/true);
         EXPECT_TRUE(result.ok);
       },
       {"26d43686c439d0e5", "dae4fecabaefc43b", "96e37f1e8883a24d"}},
      {"doh_warm_path", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         measure::WarmDohParams params;
         params.vantage = exit->site;
         params.default_resolver = exit->default_resolver;
         params.doh = &w.doh_server(0, 0);
         params.origin = w.origin();
         params.cache = &cache_model();
         params.population = 1e6;
         params.reuse.enabled = true;
         params.reuse.queries_per_session = 6;
         const auto result = co_await measure::doh_warm_path(net, params);
         EXPECT_TRUE(result.ok);
       },
       {"369705079819d4b0", "d9598c7a3a3e7593", "7a694c73bee0628c"}},
      {"do53_warm_path", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const proxy::ExitNode* exit = exit_in(w, "SE");
         measure::WarmDo53Params params;
         params.vantage = exit->site;
         params.resolver = exit->default_resolver;
         params.origin = w.origin();
         params.cache = &cache_model();
         params.population = 5e4;
         params.reuse.enabled = true;
         params.reuse.queries_per_session = 6;
         const auto result = co_await measure::do53_warm_path(net, params);
         EXPECT_TRUE(result.ok);
       },
       {"64229297fc7e0dca", "a962240347ea834f", "d5a2d9a23aa45427"}},
      // The cold session's bootstrap lookup is charged to tcp_handshake,
      // the phase it gates, like every bootstrap (DESIGN.md §3d).
      {"load_page (cold DoH)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         web::PageSpec spec;
         spec.domains = 3;
         const auto result = co_await web::load_page(
             net, page_context(w, exit_in(w, "SE")), spec,
             web::DnsMode::kDohCold);
         EXPECT_TRUE(result.ok);
       },
       {"d9f426f4319d0fbd", "cf736ce7273e3d3c", "7965b39b6d5e4cc4"}},
      {"load_page (warm DoH)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         web::PageSpec spec;
         spec.domains = 3;
         const auto result = co_await web::load_page(
             net, page_context(w, exit_in(w, "SE")), spec,
             web::DnsMode::kDohWarm);
         EXPECT_TRUE(result.ok);
       },
       {"b73b726c12ad7930", "ac53e771e1b188b3", "e24af47da79a8ec6"}},
      {"load_page (Do53)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         web::PageSpec spec;
         spec.domains = 3;
         const auto result = co_await web::load_page(
             net, page_context(w, exit_in(w, "SE")), spec,
             web::DnsMode::kDo53);
         EXPECT_TRUE(result.ok);
       },
       {"4e9fb21471f88b99", "91660ed992adc475", "d3ac712ad64ccc45"}},
      {"RipeAtlas::measure_do53", "DE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         netsim::Rng rng = w.rng().split("flow-pin-atlas");
         const proxy::AtlasProbe* probe = w.atlas().pick_probe("DE", rng);
         if (probe == nullptr) throw std::runtime_error("no probe in DE");
         const double result = co_await w.atlas().measure_do53(
             net, proxy::AtlasProbe(*probe),
             w.origin().with_subdomain("atlas-pin"));
         EXPECT_GT(result, 0.0);
       },
       {"975a601928acc193", "5d9f5b6d0c01692e", "666cf4f4650407c6"}},
      {"resolve_with_policy (DoH unreachable)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         client::PolicyContext ctx = policy_context(w, exit_in(w, "SE"));
         ctx.doh_unreachable = true;
         const auto result = co_await client::resolve_with_policy(
             net, ctx, client::DohMode::kOpportunistic);
         EXPECT_TRUE(result.downgraded);
       },
       {"a086e55055a5e2ad", "398195ae1ec79e84", "dd97ee7ebe625a18"}},
      // The policy path opens no flow root, so its attribution CSV is the
      // empty ledger's; the trace and metrics digests carry the check.
      {"resolve_with_policy (opportunistic)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const auto result = co_await client::resolve_with_policy(
             net, policy_context(w, exit_in(w, "SE")),
             client::DohMode::kOpportunistic);
         EXPECT_TRUE(result.used_doh);
       },
       {"7e4e92e0b3ac54ad", "c782e1790aba2bbe", "dd97ee7ebe625a18"}},
      {"resolve_with_policy (race)", "SE",
       [](world::WorldModel& w, netsim::NetCtx& net) -> netsim::Task<void> {
         const auto result = co_await client::resolve_with_policy(
             net, policy_context(w, exit_in(w, "SE")),
             client::DohMode::kRace);
         EXPECT_TRUE(result.resolved);
       },
       {"ded900e1b670c07b", "44b3e08210e5466b", "dd97ee7ebe625a18"}},
  };
  for (const Case& c : cases) {
    const FlowDigests got = digest_flow(c.country, c.launch);
    EXPECT_EQ(got.trace, c.pinned.trace) << c.flow << ": trace moved";
    EXPECT_EQ(got.metrics, c.pinned.metrics)
        << c.flow << ": metrics_csv moved";
    EXPECT_EQ(got.attribution, c.pinned.attribution)
        << c.flow << ": attribution_csv moved";
  }
}

}  // namespace
}  // namespace dohperf
