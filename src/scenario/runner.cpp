#include "scenario/runner.h"

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "anycast/catalog.h"
#include "obs/json.h"
#include "obs/proc_stats.h"
#include "obs/trace_export.h"
#include "report/anomalies.h"
#include "report/attribution.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/table.h"
#include "report/timeseries.h"
#include "stats/cdf.h"
#include "stats/summary.h"

namespace dohperf::scenario {
namespace {

double median_of(std::vector<double> values) {
  return values.empty() ? 0.0 : stats::median_inplace(values);
}

/// One figure 4 series: (ms, cumulative fraction) points.
using Curve = std::vector<std::pair<double, double>>;

/// The one figure 4 rendering body: the Do53 curve first, then each
/// provider's DoH1 and DoHR curves (`doh(provider, reuse)`) in catalog
/// order.
template <class DohCurve>
report::CsvWriter render_fig4(const Curve& do53, const DohCurve& doh) {
  report::CsvWriter csv({"series", "ms", "cdf"});
  const auto dump = [&csv](const std::string& name, const Curve& curve) {
    for (const auto& [value, fraction] : curve) {
      csv.add_row({name, report::fmt(value, 1), report::fmt(fraction, 3)});
    }
  };
  dump("Do53", do53);
  for (const char* provider : anycast::kProviderNames) {
    dump(std::string(provider) + "-DoH1", doh(provider, false));
    dump(std::string(provider) + "-DoHR", doh(provider, true));
  }
  return csv;
}

/// The one figure 5 rendering body: each provider's per-country DoH1
/// medians (`medians_of(provider)`) over the analysis countries.
template <class MediansOf>
report::CsvWriter render_fig5(const std::vector<std::string>& analysis,
                              const MediansOf& medians_of) {
  report::CsvWriter csv({"iso2", "provider", "median_doh1_ms"});
  for (const char* provider : anycast::kProviderNames) {
    const auto medians = medians_of(provider);
    for (const auto& iso2 : analysis) {
      if (const auto it = medians.find(iso2); it != medians.end()) {
        csv.add_row({iso2, provider, report::fmt(it->second, 1)});
      }
    }
  }
  return csv;
}

}  // namespace

RunResult run(const CampaignSpec& spec, world::WorldModel& world) {
  RunResult result;
  result.spec = spec;
  result.hash = spec_hash(spec);

  measure::Campaign campaign(world, spec.campaign);
  if (spec.sink == SinkMode::kRetained) {
    result.dataset = campaign.run();
    result.failed_measurements = result.dataset.failed_measurements;
    result.discarded_mismatch = result.dataset.discarded_mismatch;
    result.doh1_median_ms = median_of(result.dataset.tdoh_values());
    result.do53_median_ms = median_of(result.dataset.do53_values());
  } else {
    result.sink = campaign.run_streaming();
    result.failed_measurements = result.sink.failed_measurements();
    result.discarded_mismatch = result.sink.discarded_mismatch;
    result.doh1_median_ms = result.sink.tdoh_sketch().quantile(0.5);
    result.do53_median_ms = result.sink.do53_sketch().quantile(0.5);
  }
  result.stats = campaign.stats();
  measure::CampaignTelemetry telemetry = campaign.take_telemetry();
  result.metrics = std::move(telemetry.metrics);
  result.series = std::move(telemetry.series);
  result.anomalies = std::move(telemetry.anomalies);
  result.slo = std::move(telemetry.slo);
  result.attribution = std::move(telemetry.attribution);
  if (spec.campaign.slo.enabled) {
    result.slo_alerts = result.slo.evaluate();
  }
  result.retries = result.metrics.counters.loss_retries +
                   result.metrics.counters.handshake_retries;
  result.retry_timeouts = result.metrics.counters.retry_timeouts;
  return result;
}

RunResult run(const CampaignSpec& spec) {
  world::WorldModel world(spec.world);
  return run(spec, world);
}

report::CsvWriter fig4_csv(const measure::Dataset& data) {
  const auto curve = [](std::vector<double> values) {
    return stats::EmpiricalCdf(std::move(values)).curve(50);
  };
  return render_fig4(curve(data.do53_values()),
                     [&](const char* provider, bool reuse) {
                       return curve(reuse ? data.tdohr_values(provider)
                                          : data.tdoh_values(provider));
                     });
}

report::CsvWriter fig4_csv(const measure::StreamSink& sink) {
  return render_fig4(sink.do53_sketch().curve(50),
                     [&sink](const char* provider, bool reuse) {
                       return (reuse ? sink.tdohr_sketch(provider)
                                     : sink.tdoh_sketch(provider))
                           .curve(50);
                     });
}

report::CsvWriter fig5_csv(const measure::Dataset& data) {
  return render_fig5(data.analysis_countries(),
                     [&data](const char* provider) {
                       return data.country_doh_medians(provider, 1);
                     });
}

report::CsvWriter fig5_csv(const measure::StreamSink& sink) {
  return render_fig5(sink.analysis_countries(),
                     [&sink](const char* provider) {
                       return sink.country_doh1_medians(provider);
                     });
}

std::string summary_json(const RunResult& result) {
  const CampaignSpec& spec = result.spec;
  std::string out = "{\n  \"schema\": \"dohperf-scenario-summary-v1\",\n";
  out += "  \"name\": \"" + obs::json::escape(spec.name) +
         "\",\n  \"spec_hash\": \"" + obs::json::escape(result.hash) +
         "\",\n  \"sink\": \"" + obs::json::escape(to_string(spec.sink)) +
         "\",\n  \"world\": {\"seed\": " + std::to_string(spec.world.seed) +
         ", \"client_scale\": " + format_double(spec.world.client_scale) +
         "},\n";
  out += "  \"campaign\": {\"runs_per_client\": " +
         std::to_string(spec.campaign.runs_per_client) +
         ", \"atlas_measurements_per_country\": " +
         std::to_string(spec.campaign.atlas_measurements_per_country) +
         "},\n";
  out += "  \"sessions\": " + std::to_string(result.stats.sessions) + ",\n";
  out += "  \"shards\": " + std::to_string(result.stats.shards) + ",\n";
  out += "  \"events\": " + std::to_string(result.stats.events_processed) +
         ",\n";
  out += "  \"wall_seconds\": " + format_double(result.stats.wall_seconds) +
         ",\n";
  out += "  \"doh1_median_ms\": " + format_double(result.doh1_median_ms) +
         ",\n";
  out += "  \"do53_median_ms\": " + format_double(result.do53_median_ms) +
         ",\n";
  out += "  \"retries\": " + std::to_string(result.retries) + ",\n";
  out += "  \"retry_timeouts\": " + std::to_string(result.retry_timeouts) +
         ",\n";
  out += "  \"failed_measurements\": " +
         std::to_string(result.failed_measurements) + ",\n";
  out += "  \"discarded_mismatch\": " +
         std::to_string(result.discarded_mismatch) + ",\n";
  out += "  \"peak_rss_bytes\": " + std::to_string(obs::peak_rss_bytes()) +
         ",\n";
  if (spec.campaign.slo.enabled) {
    out += "  \"slo\": {\"availability_objective\": " +
           format_double(spec.campaign.slo.availability_objective) +
           ", \"alerts\": " + std::to_string(result.slo_alerts.size()) +
           ", \"providers\": [";
    bool first_provider = true;
    for (const obs::SloBudget& budget : result.slo.budgets()) {
      if (!budget.country.empty()) continue;  // Aggregates only.
      if (!first_provider) out += ", ";
      first_provider = false;
      out += "{\"provider\": \"" + obs::json::escape(budget.provider) +
             "\", \"total\": " + std::to_string(budget.total) +
             ", \"errors\": " + std::to_string(budget.errors) +
             ", \"availability\": " + format_double(budget.availability) +
             ", \"error_budget_consumed\": " +
             format_double(budget.error_budget_consumed) + "}";
    }
    out += "]},\n";
  }
  out += "  \"outputs\": [";
  bool first = true;
  for (const std::string& path : result.written) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + obs::json::escape(path) + "\"";
  }
  out += "]\n}\n";
  return out;
}

std::string provenance_line(const RunResult& result) {
  std::string line = "# dohperf-spec name=";
  line += result.spec.name;
  line += " hash=";
  line += result.hash;
  line += " sink=";
  line += to_string(result.spec.sink);
  line += "\n";
  return line;
}

void write_outputs(RunResult& result) {
  const OutputsSpec& outputs = result.spec.outputs;
  const std::string stamp = provenance_line(result);
  const bool retained = result.spec.sink == SinkMode::kRetained;

  // Each text output is the stamp followed by one rendered body. The
  // renderers hand their buffers over (CsvWriter::str() on a temporary),
  // so no document is copied or concatenated on its way to disk.
  const auto emit = [&](const std::string& path, std::string_view body) {
    obs::write_text_file(path, {stamp, body});
    result.written.push_back(path);
  };

  if (!outputs.fig4_csv.empty()) {
    emit(outputs.fig4_csv, (retained ? fig4_csv(result.dataset)
                                     : fig4_csv(result.sink))
                               .str());
  }
  if (!outputs.fig5_csv.empty()) {
    emit(outputs.fig5_csv, (retained ? fig5_csv(result.dataset)
                                     : fig5_csv(result.sink))
                               .str());
  }
  if (!outputs.metrics_csv.empty()) {
    emit(outputs.metrics_csv, report::metrics_csv(result.metrics).str());
  }
  if (!outputs.series_csv.empty()) {
    emit(outputs.series_csv, report::timeseries_csv(result.series).str());
  }
  if (!outputs.availability_csv.empty()) {
    emit(outputs.availability_csv,
         report::availability_csv(result.slo).str());
  }
  if (!outputs.slo_alerts_csv.empty()) {
    emit(outputs.slo_alerts_csv,
         report::slo_alerts_csv(result.slo_alerts).str());
  }
  if (!outputs.attribution_csv.empty()) {
    emit(outputs.attribution_csv,
         report::attribution_csv(result.attribution).str());
  }
  if (!outputs.openmetrics.empty()) {
    // Extra gauge blocks join the series exposition inside the same
    // document frame, between its last sample and its "# EOF".
    constexpr std::string_view kEof = "# EOF\n";
    const std::string series = report::openmetrics_text(result.series);
    std::string_view samples = series;
    if (samples.ends_with(kEof)) samples.remove_suffix(kEof.size());
    std::string gauges;
    if (result.spec.campaign.slo.enabled) {
      gauges += report::slo_openmetrics_text(result.slo);
    }
    if (!result.attribution.empty()) {
      gauges += report::attribution_openmetrics_text(result.attribution);
    }
    obs::write_text_file(outputs.openmetrics,
                         {stamp, samples, gauges, kEof});
    result.written.push_back(outputs.openmetrics);
  }
  if (!outputs.anomalies_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(outputs.anomalies_dir, ec);
    const std::size_t dumps =
        report::write_anomaly_dumps(result.anomalies, outputs.anomalies_dir);
    obs::write_text_file(
        (std::filesystem::path(outputs.anomalies_dir) / "spec.txt").string(),
        {stamp, canonical_text(result.spec)});
    std::fprintf(stderr, "anomalies: %zu flow dump(s) -> %s\n", dumps,
                 outputs.anomalies_dir.c_str());
    result.written.push_back(outputs.anomalies_dir);
  }
  // The summary goes last so its "outputs" array lists everything else
  // this run produced.
  if (!outputs.summary_json.empty()) {
    obs::write_text_file(outputs.summary_json, summary_json(result));
    result.written.push_back(outputs.summary_json);
  }
}

}  // namespace dohperf::scenario
