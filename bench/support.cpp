#include "support.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "measure/flows.h"
#include "measure/warm.h"
#include "obs/proc_stats.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "resolver/shared_cache.h"

namespace dohperf::benchsupport {
namespace {

/// First enrolled exit node in world order (trace captures want any
/// representative vantage, not a particular one).
const proxy::ExitNode* first_exit(world::WorldModel& world) {
  for (const std::string& iso2 : world.countries()) {
    for (const std::uint64_t id : world.brightdata().exits_in(iso2)) {
      if (const proxy::ExitNode* exit = world.brightdata().find(id)) {
        return exit;
      }
    }
  }
  return nullptr;
}

/// Runs one fully-instrumented flow from the first enrolled exit to the
/// first provider's routed PoP on the world's own simulator and writes
/// its Perfetto trace to `path`. `launch(net, exit, doh)` starts the
/// flow. Runs after the campaign on the private RNG substream `rng_tag`,
/// so the dataset is untouched.
template <typename Launch>
void capture_trace(world::WorldModel& world, const std::string& path,
                   const char* rng_tag, Launch launch) {
  const proxy::ExitNode* exit = first_exit(world);
  if (exit == nullptr || world.providers().empty()) return;

  obs::SpanContext spans;
  obs::Metrics metrics;
  netsim::Rng rng = world.rng().split(rng_tag);
  const std::size_t pop_index = world.providers()[0].route(
      exit->site.position, exit->anycast_region, rng);
  world.run_flow(
      [&](netsim::NetCtx& net) {
        net.spans = &spans;
        net.metrics = &metrics;
        return launch(net, *exit, world.doh_server(0, pop_index));
      },
      rng);

  obs::write_perfetto_trace(spans, path);
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.spans().size(),
               path.c_str());
}

/// One DoH-via-proxy measurement.
void capture_proxy_trace(world::WorldModel& world, const std::string& path) {
  const auto launch = [&world](netsim::NetCtx& net,
                               const proxy::ExitNode& exit,
                               resolver::DohServer& doh) {
    measure::DohProxyParams params;
    params.client = world.measurement_client();
    params.super_proxy =
        world.brightdata().nearest_super_proxy(exit.site.position).site;
    params.exit = &exit;
    params.doh = &doh;
    params.tls = world.config().tls_version;
    params.origin = world.origin();
    return measure::doh_via_proxy(net, std::move(params));
  };
  capture_trace(world, path, "trace-capture", launch);
}

/// One warm DoH session (connection pool + shared cache enabled), so the
/// trace exercises reuse/resumption spans and the per-iteration
/// "warm_query" tiling that tools/trace_inspect's phase-sum check covers.
void capture_warm_trace(world::WorldModel& world, const std::string& path) {
  resolver::SharedCacheConfig cache_config;
  cache_config.enabled = true;
  const resolver::SharedCacheModel cache(cache_config);
  const auto launch = [&](netsim::NetCtx& net, const proxy::ExitNode& exit,
                          resolver::DohServer& doh) {
    measure::WarmDohParams params;
    params.vantage = exit.site;
    params.default_resolver = exit.default_resolver;
    params.doh = &doh;
    params.tls = world.config().tls_version;
    params.origin = world.origin();
    params.cache = &cache;
    params.population = cache_config.population;
    params.reuse.enabled = true;
    params.reuse.queries_per_session = 8;
    return measure::doh_warm_path(net, std::move(params));
  };
  capture_trace(world, path, "trace-capture-warm", launch);
}

}  // namespace

double scale_from_env() {
  // The environment multiplies a spec's client scale, reading
  // DOHPERF_SCALE through the spec's number rule; on a unit scale the
  // product is the factor itself.
  scenario::CampaignSpec unit;
  unit.world.client_scale = 1.0;
  apply_env(unit);
  return unit.world.client_scale;
}

void apply_env(scenario::CampaignSpec& spec) {
  std::string error;
  if (!scenario::apply_env_overrides(spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

scenario::SpecDocument inline_spec(std::string_view text,
                                   const std::string& origin) {
  scenario::SpecParseResult parsed = scenario::parse_spec(text, origin);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error.c_str());
    std::exit(2);
  }
  apply_env(parsed.doc.base);
  return std::move(parsed.doc);
}

Env& Env::instance() {
  static Env env;
  return env;
}

Env::Env() {
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  const char* spec_path = std::getenv("DOHPERF_SPEC");
  if (spec_path != nullptr) {
    const scenario::SpecParseResult parsed =
        scenario::load_spec_file(spec_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error.c_str());
      std::exit(2);
    }
    if (parsed.doc.is_sweep()) {
      std::fprintf(stderr,
                   "bench: %s is a sweep spec; benches run one campaign "
                   "(use tools/campaign_run for sweeps)\n",
                   spec_path);
      std::exit(2);
    }
    spec = parsed.doc.base;
  }
  apply_env(spec);
  // A spec file states its own Atlas count; the baseline scales it.
  if (spec_path == nullptr) scenario::scale_atlas_to_world(spec);
  spec.sink = scenario::SinkMode::kRetained;  // benches query the rows

  world_ = std::make_unique<world::WorldModel>(spec.world);
  result_ = scenario::run(spec, *world_);
  scenario::write_outputs(result_);

  if (const char* trace_path = std::getenv("DOHPERF_TRACE")) {
    capture_proxy_trace(*world_, trace_path);
  }
  if (const char* trace_path = std::getenv("DOHPERF_TRACE_WARM")) {
    capture_warm_trace(*world_, trace_path);
  }
}

void print_banner(const std::string& title) {
  Env& env = Env::instance();
  const scenario::RunResult& run = env.result();
  std::printf("%s\n", title.c_str());
  std::printf("scenario %s | hash %s | sink %s\n", run.spec.name.c_str(),
              run.hash.c_str(),
              std::string(scenario::to_string(run.spec.sink)).c_str());
  std::printf(
      "world scale %.2f | %zu exit nodes | %zu retained clients | "
      "%llu mismatch-discarded | %llu failed measurements\n",
      run.spec.world.client_scale, env.world().exit_count(),
      env.dataset().clients().size(),
      static_cast<unsigned long long>(env.dataset().discarded_mismatch),
      static_cast<unsigned long long>(env.dataset().failed_measurements));
  const measure::CampaignStats& stats = run.stats;
  std::printf(
      "campaign: %d shard%s | %llu sessions | %llu events in %.2f s "
      "(%.0f events/s)\n",
      stats.shards, stats.shards == 1 ? "" : "s",
      static_cast<unsigned long long>(stats.sessions),
      static_cast<unsigned long long>(stats.events_processed),
      stats.wall_seconds,
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.events_processed) / stats.wall_seconds
          : 0.0);
  for (const measure::ShardProfile& p : stats.shard_profiles) {
    std::printf(
        "  shard %-2d %llu sessions | %llu events in %.2f s "
        "(%.0f events/s) | queue high-water %zu\n",
        p.shard, static_cast<unsigned long long>(p.sessions),
        static_cast<unsigned long long>(p.events), p.wall_seconds,
        p.events_per_second(), p.queue_high_water);
  }
  netsim::ArenaStats arena;
  std::uint64_t arena_high_water = 0;
  for (const measure::ShardProfile& p : stats.shard_profiles) {
    arena += p.arena;
    arena_high_water = std::max(arena_high_water, p.arena.high_water_bytes);
  }
  std::printf(
      "memory: peak RSS %.1f MiB | arena %llu frame allocs "
      "(%.1f%% free-list reuse, %llu heap fallbacks) | "
      "%.1f MiB slabs, high-water %.1f MiB/shard\n",
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(arena.allocations),
      arena.allocations > 0
          ? 100.0 * static_cast<double>(arena.reused) /
                static_cast<double>(arena.allocations)
          : 0.0,
      static_cast<unsigned long long>(arena.fallbacks),
      static_cast<double>(arena.slab_bytes) / (1024.0 * 1024.0),
      static_cast<double>(arena_high_water) / (1024.0 * 1024.0));
  const obs::MetricCounters& c = run.metrics.counters;
  std::printf(
      "metrics: %llu dns / %llu doh / %llu do53 queries | "
      "%llu tcp + %llu tls + %llu quic handshakes | %llu tunnels | "
      "%llu loss + %llu handshake retries | %llu give-ups | "
      "%llu fallbacks | %llu brownout delays | %llu failures\n",
      static_cast<unsigned long long>(c.dns_queries),
      static_cast<unsigned long long>(c.doh_queries),
      static_cast<unsigned long long>(c.do53_queries),
      static_cast<unsigned long long>(c.tcp_handshakes),
      static_cast<unsigned long long>(c.tls_handshakes),
      static_cast<unsigned long long>(c.quic_handshakes),
      static_cast<unsigned long long>(c.tunnels_established),
      static_cast<unsigned long long>(c.loss_retries),
      static_cast<unsigned long long>(c.handshake_retries),
      static_cast<unsigned long long>(c.retry_timeouts),
      static_cast<unsigned long long>(c.fallbacks),
      static_cast<unsigned long long>(c.brownout_delays),
      static_cast<unsigned long long>(c.failures));
  const obs::Metrics::Histograms& histograms = run.metrics.histograms();
  for (const auto* track : histograms.sorted()) {
    const std::string name(histograms.names(track->ids)[0]);
    const obs::LatencyHistogram& hist = track->value;
    std::printf("  %-12s n=%-7llu p50=%.1f ms  p99=%.1f ms\n", name.c_str(),
                static_cast<unsigned long long>(hist.count()),
                hist.quantile_ms(0.5), hist.quantile_ms(0.99));
  }
  const obs::AnomalyCounts& a = run.anomalies.counts();
  std::printf(
      "flight recorder: %llu flows examined | %llu anomalous "
      "(%llu slow, %llu give-up, %llu fallback, %llu brownout) | "
      "%zu retained, %llu evicted\n",
      static_cast<unsigned long long>(a.flows),
      static_cast<unsigned long long>(a.anomalous),
      static_cast<unsigned long long>(a.slow),
      static_cast<unsigned long long>(a.give_up),
      static_cast<unsigned long long>(a.fallback),
      static_cast<unsigned long long>(a.brownout),
      run.anomalies.retained().size(),
      static_cast<unsigned long long>(a.evicted));
  std::printf("\n");
}

int run_main(const char* program, int (*body)()) {
  try {
    return body();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    return 1;
  }
}

std::string out_path(const std::string& name) {
  const std::filesystem::path dir = "out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort
  return (dir / name).string();
}

}  // namespace dohperf::benchsupport
