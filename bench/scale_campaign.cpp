// Million-session scaling sweep (ISSUE 6): run the streaming-sink
// campaign at increasing session counts over one fixed world and record
// wall time, throughput, peak RSS, and arena counters per point.
//
// The experiment is a streaming scenario spec: the world is built once
// from the spec's [world] section; each sweep point raises
// runs_per_client until the requested session count is reached and runs
// through scenario::run() against the shared world, so any RSS growth
// across the sweep is attributable to the campaign — the streaming
// sink's claim is that there is (almost) none.
//
//   DOHPERF_SCALE_POINTS  comma-separated session targets, each a positive
//                         decimal integer; anything else exits 2 before
//                         the world is built
//                         (default "10000,30000,100000,300000,1000000")
//   DOHPERF_SCALE_OUT     output JSON path (default out/BENCH_scale.json)
//   DOHPERF_SCALE / DOHPERF_SEED / DOHPERF_THREADS as everywhere else.
//
// The output carries schema tag "dohperf-bench-scale-v1" — each point
// stamped with the content hash of the exact spec it ran — and is
// validated by tools/bench_schema_check in CI.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "measure/campaign.h"
#include "obs/proc_stats.h"
#include "obs/trace_export.h"
#include "proxy/brightdata.h"
#include "report/format.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "support.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

std::vector<std::uint64_t> points_from_env() {
  std::vector<std::uint64_t> points;
  const char* env = std::getenv("DOHPERF_SCALE_POINTS");
  const std::string spec =
      env != nullptr ? env : "10000,30000,100000,300000,1000000";
  // Every entry, empty ones included, follows the count rule.
  for (std::size_t pos = 0; pos <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    int n = 0;
    if (!measure::parse_count(
            std::string_view(spec).substr(pos, comma - pos), &n)) {
      std::fprintf(stderr,
                   "scale_campaign: DOHPERF_SCALE_POINTS: expected "
                   "comma-separated positive decimal integers, got \"%s\"\n",
                   spec.c_str());
      std::exit(2);
    }
    points.push_back(static_cast<std::uint64_t>(n));
    pos = comma + 1;
  }
  std::sort(points.begin(), points.end());
  return points;
}

struct Point {
  std::uint64_t requested = 0;
  int runs_per_client = 0;
  std::string spec_hash;
  measure::CampaignStats stats;
  netsim::ArenaStats arena;          // summed across shards
  std::uint64_t arena_high_water = 0;  // max across shards
  std::uint64_t doh_rows = 0;
  std::uint64_t do53_rows = 0;
  std::uint64_t atlas_rows = 0;
  std::uint64_t failed = 0;
  std::uint64_t peak_rss = 0;
  std::uint64_t current_rss = 0;
  double doh_median_ms = 0.0;
};

void write_json(const std::string& path, const scenario::CampaignSpec& spec,
                const std::string& base_hash, std::size_t exits,
                const std::vector<Point>& points) {
  const auto field = [](const char* key, const std::string& value) {
    return std::string("      \"") + key + "\": " + value + ",\n";
  };
  std::string json = "{\n  \"schema\": \"dohperf-bench-scale-v1\",\n";
  json += "  \"spec_hash\": \"" + base_hash + "\",\n";
  json += "  \"world\": {\"scale\": " +
          std::string(report::NumText::g6(spec.world.client_scale)) +
          ", \"seed\": " + std::to_string(spec.world.seed) +
          ", \"exits\": " + std::to_string(exits) + "},\n";
  json += "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json += "    {\n";
    json += field("requested_sessions", std::to_string(p.requested));
    json += field("runs_per_client", std::to_string(p.runs_per_client));
    json += field("spec_hash", "\"" + p.spec_hash + "\"");
    json += field("sessions", std::to_string(p.stats.sessions));
    json += field("shards", std::to_string(p.stats.shards));
    json += field("events", std::to_string(p.stats.events_processed));
    json += field("wall_seconds", report::fmt(p.stats.wall_seconds, 6));
    json += field("events_per_second",
                  report::fmt(p.stats.wall_seconds > 0.0
                                  ? static_cast<double>(
                                        p.stats.events_processed) /
                                        p.stats.wall_seconds
                                  : 0.0,
                              1));
    json += field("doh_rows", std::to_string(p.doh_rows));
    json += field("do53_rows", std::to_string(p.do53_rows));
    json += field("atlas_rows", std::to_string(p.atlas_rows));
    json += field("failed_measurements", std::to_string(p.failed));
    json += field("doh_median_ms", report::fmt(p.doh_median_ms, 3));
    json += field("peak_rss_bytes", std::to_string(p.peak_rss));
    json += field("current_rss_bytes", std::to_string(p.current_rss));
    json += "      \"arena\": {\"allocations\": " +
            std::to_string(p.arena.allocations) +
            ", \"reused\": " + std::to_string(p.arena.reused) +
            ", \"fallbacks\": " + std::to_string(p.arena.fallbacks) +
            ", \"slab_bytes\": " + std::to_string(p.arena.slab_bytes) +
            ", \"high_water_bytes\": " +
            std::to_string(p.arena_high_water) + "}\n";
    json += i + 1 < points.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n}\n";
  obs::write_text_file(path, json);
}

int bench() {
  const std::vector<std::uint64_t> targets = points_from_env();
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  spec.name = "scale-campaign";
  spec.sink = scenario::SinkMode::kStreaming;
  benchsupport::apply_env(spec);
  spec.outputs = scenario::OutputsSpec{};  // this bench shapes its own JSON
  const std::string base_hash = scenario::spec_hash(spec);

  std::printf("scale_campaign: building world (scale %.2f, seed %" PRIu64
              ", spec %s)...\n",
              spec.world.client_scale, spec.world.seed, base_hash.c_str());
  world::WorldModel world(spec.world);
  const std::size_t exits = world.exit_count();
  const std::uint64_t rss_after_world = obs::peak_rss_bytes();
  std::printf("world: %zu exit nodes | peak RSS after build %.1f MiB\n",
              exits, static_cast<double>(rss_after_world) / (1024.0 * 1024.0));

  // Atlas sessions are fixed per sweep point; the remainder is reached by
  // raising runs_per_client over the fixed exit population.
  const std::uint64_t atlas_total =
      static_cast<std::uint64_t>(spec.campaign.atlas_measurements_per_country) *
      proxy::kSuperProxyCountries.size();

  std::vector<Point> results;
  for (const std::uint64_t target : targets) {
    Point p;
    p.requested = target;
    const double wanted =
        target > atlas_total ? static_cast<double>(target - atlas_total) : 0.0;
    p.runs_per_client = std::max(
        1, static_cast<int>(std::llround(wanted / static_cast<double>(exits))));

    spec.campaign.runs_per_client = p.runs_per_client;
    const scenario::RunResult result = scenario::run(spec, world);

    p.spec_hash = result.hash;
    p.stats = result.stats;
    for (const measure::ShardProfile& sp : p.stats.shard_profiles) {
      p.arena += sp.arena;
      p.arena_high_water =
          std::max(p.arena_high_water, sp.arena.high_water_bytes);
    }
    p.doh_rows = result.sink.doh_rows();
    p.do53_rows = result.sink.do53_rows();
    p.atlas_rows = result.sink.atlas_rows();
    p.failed = result.failed_measurements;
    p.doh_median_ms = result.doh1_median_ms;
    p.peak_rss = obs::peak_rss_bytes();
    p.current_rss = obs::current_rss_bytes();
    results.push_back(p);

    std::printf(
        "  %8" PRIu64 " requested | %8" PRIu64 " sessions (runs=%d) | "
        "%6.2f s | %9.0f events/s | peak RSS %.1f MiB | "
        "arena reuse %.1f%%\n",
        p.requested, p.stats.sessions, p.runs_per_client,
        p.stats.wall_seconds,
        p.stats.wall_seconds > 0.0
            ? static_cast<double>(p.stats.events_processed) /
                  p.stats.wall_seconds
            : 0.0,
        static_cast<double>(p.peak_rss) / (1024.0 * 1024.0),
        p.arena.allocations > 0
            ? 100.0 * static_cast<double>(p.arena.reused) /
                  static_cast<double>(p.arena.allocations)
            : 0.0);
  }

  const char* out_env = std::getenv("DOHPERF_SCALE_OUT");
  const std::string path = out_env != nullptr
                               ? std::string(out_env)
                               : benchsupport::out_path("BENCH_scale.json");
  write_json(path, spec, base_hash, exits, results);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("scale_campaign", bench);
}
