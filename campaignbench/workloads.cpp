#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "measure/regression.h"
#include "obs/proc_stats.h"
#include "report/attribution.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/timeseries.h"
#include "scenario/runner.h"
#include "world/world_model.h"

namespace campaignbench {
namespace {

using namespace dohperf;

constexpr Workload kWorkloads[] = {
    {"cold_paper", 1, true},
    {"warm_reuse", 2, false},
    {"fault_slo", 4, false},
};

constexpr std::string_view kOutputNames[] = {
    "fig4_csv",       "fig5_csv",         "metrics_csv",
    "series_csv",     "availability_csv", "slo_alerts_csv",
    "attribution_csv", "openmetrics",     "summary_json",
};

std::string scenario::OutputsSpec::*output_member(std::string_view name) {
  using O = scenario::OutputsSpec;
  if (name == "fig4_csv") return &O::fig4_csv;
  if (name == "fig5_csv") return &O::fig5_csv;
  if (name == "metrics_csv") return &O::metrics_csv;
  if (name == "series_csv") return &O::series_csv;
  if (name == "availability_csv") return &O::availability_csv;
  if (name == "slo_alerts_csv") return &O::slo_alerts_csv;
  if (name == "attribution_csv") return &O::attribution_csv;
  if (name == "openmetrics") return &O::openmetrics;
  return &O::summary_json;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Opens a span on construction and closes it on destruction; a no-op
/// when the repetition is not traced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  obs::SpanId id_ = obs::kNoSpan;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read output " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The summary JSON carries the run's wall time and peak RSS, which no
/// two runs share, its shard count, and the written paths under the
/// harness's output directory; everything else in it is model output.
std::string normalize_summary(const std::string& text,
                              const std::string& out_dir) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string_view line(text.data() + pos, end - pos);
    if (line.find("\"wall_seconds\"") == std::string_view::npos &&
        line.find("\"peak_rss_bytes\"") == std::string_view::npos &&
        line.find("\"shards\"") == std::string_view::npos) {
      out.append(line);
    }
    pos = end;
  }
  const std::string prefix = "\"" + out_dir + "/";
  for (std::size_t at = out.find(prefix); at != std::string::npos;
       at = out.find(prefix, at + 1)) {
    out.replace(at, prefix.size(), "\"");
  }
  return out;
}

template <typename Fit>
std::string fit_text(const Fit& fit) {
  std::string text;
  char buf[96];
  for (const auto& term : fit.terms) {
    std::snprintf(buf, sizeof buf, "%s %.6e\n", term.name.c_str(),
                  term.coef);
    text += buf;
  }
  return text;
}

/// The text scenario::write_outputs writes for `name`, rendered on its
/// own (the openmetrics splice mirrors the runner's).
std::string render_output(std::string_view name,
                          const scenario::RunResult& r) {
  const bool retained = r.spec.sink == scenario::SinkMode::kRetained;
  const std::string stamp = scenario::provenance_line(r);
  if (name == "fig4_csv") {
    return stamp + (retained ? scenario::fig4_csv(r.dataset)
                             : scenario::fig4_csv(r.sink))
                       .str();
  }
  if (name == "fig5_csv") {
    return stamp + (retained ? scenario::fig5_csv(r.dataset)
                             : scenario::fig5_csv(r.sink))
                       .str();
  }
  if (name == "metrics_csv") {
    return stamp + report::metrics_csv(r.metrics).str();
  }
  if (name == "series_csv") {
    return stamp + report::timeseries_csv(r.series).str();
  }
  if (name == "availability_csv") {
    return stamp + report::availability_csv(r.slo).str();
  }
  if (name == "slo_alerts_csv") {
    return stamp + report::slo_alerts_csv(r.slo_alerts).str();
  }
  if (name == "attribution_csv") {
    return stamp + report::attribution_csv(r.attribution).str();
  }
  if (name == "openmetrics") {
    std::string om = report::openmetrics_text(r.series);
    std::string gauges;
    if (r.spec.campaign.slo.enabled) {
      gauges += report::slo_openmetrics_text(r.slo);
    }
    if (!r.attribution.empty()) {
      gauges += report::attribution_openmetrics_text(r.attribution);
    }
    const std::size_t eof = om.rfind("# EOF\n");
    om.insert(eof == std::string::npos ? om.size() : eof, gauges);
    return stamp + om;
  }
  return scenario::summary_json(r);
}

void read_counters(const scenario::RunResult& r,
                   const world::WorldModel& world, RepOutcome& out) {
  auto& c = out.counters;
  const obs::MetricCounters& m = r.metrics.counters;
  c["world.exits"] = world.exit_count();
  c["netsim.events"] = r.stats.events_processed;
  std::uint64_t queue_high_water = 0;
  netsim::ArenaStats arena;
  for (const measure::ShardProfile& shard : r.stats.shard_profiles) {
    queue_high_water =
        std::max<std::uint64_t>(queue_high_water, shard.queue_high_water);
    arena += shard.arena;
    out.shard_wall_s.push_back(shard.wall_seconds);
  }
  c["netsim.queue_high_water"] = queue_high_water;
  c["netsim.arena_allocations"] = arena.allocations;
  c["netsim.arena_reuses"] = arena.reused;
  c["netsim.arena_high_water_bytes"] = arena.high_water_bytes;
  c["netsim.loss_retries"] = m.loss_retries;
  c["netsim.handshake_retries"] = m.handshake_retries;
  c["netsim.retry_timeouts"] = m.retry_timeouts;
  c["netsim.brownout_delays"] = m.brownout_delays;
  c["transport.messages"] = m.messages;
  c["transport.bytes_on_wire"] = m.bytes_on_wire;
  c["transport.tcp_handshakes"] = m.tcp_handshakes;
  c["transport.tls_handshakes"] = m.tls_handshakes;
  c["transport.tls_resumptions"] = m.tls_resumptions;
  c["proxy.tunnels"] = m.tunnels_established;
  c["dns.queries"] = m.dns_queries;
  c["client.pool_cold"] = m.pool_cold;
  c["client.pool_reuses"] = m.pool_reuses;
  c["client.pool_resumptions"] = m.pool_resumptions;
  c["client.pool_evictions"] = m.pool_evictions;
  c["resolver.shared_cache_hits"] = m.shared_cache_hits;
  c["resolver.shared_cache_misses"] = m.shared_cache_misses;
  c["resolver.stub_cache_hits"] = m.stub_cache_hits;
  c["measure.sessions"] = r.stats.sessions;
  c["measure.failed_measurements"] = r.failed_measurements;
  const bool retained = r.spec.sink == scenario::SinkMode::kRetained;
  c["measure.doh_rows"] = retained ? r.dataset.doh().size() : r.sink.doh_rows();
  c["measure.do53_rows"] =
      retained ? r.dataset.do53().size() : r.sink.do53_rows();
  std::uint64_t cells = 0;
  for (const auto& [key, track] : r.series.counters()) cells += track.size();
  for (const auto& [key, track] : r.series.latencies()) cells += track.size();
  c["obs.series_tracks"] =
      r.series.counters().size() + r.series.latencies().size();
  c["obs.series_cells"] = cells;
  c["obs.histograms"] = r.metrics.histograms().size();
  c["obs.slo_keys"] = r.slo.cells().size();
  c["obs.slo_alerts"] = r.slo_alerts.size();
  c["obs.attribution_cells"] = r.attribution.entries().size();
  c["obs.anomalies_examined"] = r.anomalies.counts().flows;
  c["obs.anomalies_retained"] = r.anomalies.retained().size();
}

/// Set-up: spec parse + world build, timed into `t`.
std::unique_ptr<world::WorldModel> set_up(const RepInput& in,
                                          scenario::CampaignSpec& spec,
                                          RepTimes& t) {
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(in.tracer, "scenario.parse");
    scenario::SpecParseResult parsed =
        scenario::parse_spec(in.spec_text, std::string(in.workload->name));
    if (!parsed.ok()) throw std::runtime_error(parsed.error);
    spec = std::move(parsed.doc.base);
  }
  spec.world.seed = in.seed;
  spec.campaign.threads = in.shards;
  for (const std::string_view name : kOutputNames) {
    std::string& path = spec.outputs.*output_member(name);
    if (!path.empty()) path = in.out_dir + "/" + path;
  }
  const Clock::time_point parsed = Clock::now();
  std::unique_ptr<world::WorldModel> world;
  {
    ScopedSpan span(in.tracer, "world.build");
    world = std::make_unique<world::WorldModel>(spec.world);
  }
  const Clock::time_point ready = Clock::now();
  t.world_s = seconds_between(parsed, ready);
  t.setup_s = seconds_between(start, ready);
  return world;
}

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

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::span<const std::string_view> output_names() { return kOutputNames; }

double setup_seconds(const RepInput& in) {
  scenario::CampaignSpec spec;
  RepTimes t;
  (void)set_up(in, spec, t);
  return t.setup_s;
}

RepOutcome run_repetition(const RepInput& in) {
  RepOutcome out;
  RepTimes& t = out.times;
  Tracer* tracer = in.tracer;
  std::optional<ScopedSpan> rep_span;
  rep_span.emplace(tracer, "repetition");

  scenario::CampaignSpec spec;
  const std::unique_ptr<world::WorldModel> world = set_up(in, spec, t);
  out.world_rss_bytes = obs::current_rss_bytes();

  // Run: campaign, fits, outputs.
  const double cpu_start = cpu_seconds();
  const Clock::time_point run_start = Clock::now();
  std::optional<scenario::RunResult> result;
  {
    ScopedSpan span(tracer, "measure.campaign");
    result.emplace(scenario::run(spec, *world));
  }
  const Clock::time_point campaign_end = Clock::now();
  t.campaign_cpu_s = cpu_seconds() - cpu_start;
  t.campaign_s = seconds_between(run_start, campaign_end);
  out.campaign_rss_bytes = obs::current_rss_bytes();

  const Clock::time_point fits_start = Clock::now();
  std::vector<std::pair<std::string, std::string>> fits;
  if (in.workload->fits) {
    ScopedSpan span(tracer, "measure.regression");
    const auto rows = measure::regression_rows(result->dataset);
    for (const int n : {1, 10, 100, 1000}) {
      fits.emplace_back("fit.logistic_n" + std::to_string(n),
                        fit_text(measure::fit_slowdown_logistic(rows, n)));
    }
    for (const int n : {1, 10}) {
      fits.emplace_back("fit.linear_n" + std::to_string(n),
                        fit_text(measure::fit_delta_linear(rows, n)));
    }
  }
  const Clock::time_point fits_end = Clock::now();
  t.regression_s = seconds_between(fits_start, fits_end);
  {
    ScopedSpan span(tracer, "report.write");
    scenario::write_outputs(*result);
  }
  const Clock::time_point written = Clock::now();
  t.write_s = seconds_between(fits_end, written);
  std::map<std::string, std::uint64_t> rendered_bytes;
  if (tracer != nullptr) {
    for (const std::string_view name : kOutputNames) {
      if ((result->spec.outputs.*output_member(name)).empty()) continue;
      const Clock::time_point render_start = Clock::now();
      {
        ScopedSpan span(tracer, "report." + std::string(name));
        rendered_bytes[std::string(name)] = render_output(name, *result).size();
      }
      t.render_s[std::string(name)] =
          seconds_between(render_start, Clock::now());
    }
  }
  const Clock::time_point run_end = Clock::now();
  t.cpu_s = cpu_seconds() - cpu_start;
  t.run_s = seconds_between(run_start, run_end);
  rep_span.reset();

  // Untimed: digests of what was written, model counters, layer counters.
  for (const std::string_view name : kOutputNames) {
    const std::string& path = result->spec.outputs.*output_member(name);
    if (path.empty()) continue;
    std::string text = read_file(path);
    out.output_bytes[std::string(name)] = text.size();
    if (name == "summary_json") text = normalize_summary(text, in.out_dir);
    out.digests[std::string(name)] = fnv1a_hex(text);
  }
  // A renderer called on its own must produce what write_outputs wrote
  // (the summary differs in its timing lines, so only CSV/text outputs).
  for (const auto& [name, bytes] : rendered_bytes) {
    if (name != "summary_json" && bytes != out.output_bytes[name]) {
      throw std::runtime_error("renderer for " + name + " produced " +
                               std::to_string(bytes) + " bytes, " +
                               "write_outputs wrote " +
                               std::to_string(out.output_bytes[name]));
    }
  }
  for (const auto& [key, text] : fits) out.digests[key] = fnv1a_hex(text);
  out.digests["sessions"] = std::to_string(result->stats.sessions);
  out.digests["failed_measurements"] =
      std::to_string(result->failed_measurements);
  out.digests["doh1_median_ms"] =
      scenario::format_double(result->doh1_median_ms);
  out.digests["do53_median_ms"] =
      scenario::format_double(result->do53_median_ms);
  read_counters(*result, *world, out);
  return out;
}

}  // namespace campaignbench
