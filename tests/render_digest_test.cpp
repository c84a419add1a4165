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
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/trace_export.h"
#include "report/anomalies.h"
#include "report/attribution.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/timeseries.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

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
      std::filesystem::temp_directory_path() / "dohperf_render_digest";
  std::filesystem::remove_all(dir);
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

}  // namespace
}  // namespace dohperf
