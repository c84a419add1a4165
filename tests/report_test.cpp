// Tests for the report helpers (ASCII tables, CSV, metric series and
// anomaly exports).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "netsim/time.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "report/anomalies.h"
#include "obs/trace_export.h"
#include "report/csv.h"
#include "report/format.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/table.h"
#include "report/timeseries.h"
#include "scratch_path.h"

namespace dohperf::report {
namespace {

TEST(TableTest, RendersHeaderRowsAndCaption) {
  Table t("Demo");
  t.header({"Country", "Median (ms)"});
  t.row({"Sweden", "129"});
  t.row({"Brazil", "193"});
  t.caption("Two rows.");
  const std::string out = t.render();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("Country"), std::string::npos);
  EXPECT_NE(out.find("Sweden"), std::string::npos);
  EXPECT_NE(out.find("193 |"), std::string::npos);
  EXPECT_NE(out.find("Two rows."), std::string::npos);
}

TEST(TableTest, AlignsNumbersRightAndTextLeft) {
  Table t("Align");
  t.header({"Name", "Value"});
  t.row({"ab", "1"});
  t.row({"a", "100"});
  const std::string out = t.render();
  // Text column padded on the right, numeric column padded on the left.
  EXPECT_NE(out.find("| a    |"), std::string::npos);
  EXPECT_NE(out.find("|     1 |"), std::string::npos);
}

TEST(TableTest, HandlesRaggedRows) {
  Table t("Ragged");
  t.header({"A", "B", "C"});
  t.row({"x"});
  EXPECT_NO_THROW({ (void)t.render(); });
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_ratio(1.837, 2), "1.84x");
  EXPECT_EQ(fmt_percent(0.263, 1), "26.3%");
}

TEST(CsvTest, BasicOutput) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"1", "2"});
  csv.add_row({"3", "4"});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n3,4\n");
  EXPECT_EQ(csv.row_count(), 2u);
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvWriter csv({"text"});
  csv.add_row({"has,comma"});
  csv.add_row({"has\"quote"});
  csv.add_row({"has\nnewline"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(out.find("\"has\nnewline\""), std::string::npos);
}

TEST(CsvTest, WritesFile) {
  const std::string path = tests::scratch_path("dohperf_csv_test.csv");
  CsvWriter csv({"x"});
  csv.add_row({"42"});
  csv.write_file(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::getline(in, line);
  EXPECT_EQ(line, "42");
  std::remove(path.c_str());
}

TEST(CsvTest, WriteFileCreatesMissingParentDirectories) {
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  const std::filesystem::path dir = tests::scratch_path("dohperf_csv_test_dir");
  const std::filesystem::path path = dir / "nested" / "out.csv";
  csv.write_file(path.string());  // must not throw: parents are created
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(CsvTest, ParseCsvRoundTripsEvilCells) {
  CsvWriter csv({"name", "value"});
  csv.add_row({"plain", "1"});
  csv.add_row({"has,comma", "2"});
  csv.add_row({"has\"quote", "3"});
  csv.add_row({"multi\nline", "4"});
  csv.add_row({"cr\rcell", "5"});
  csv.add_row({"", "6"});  // empty cell survives too
  const auto parsed = parse_csv(csv.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 7u);  // header + 6 rows
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"name", "value"}));
  EXPECT_EQ((*parsed)[2][0], "has,comma");
  EXPECT_EQ((*parsed)[3][0], "has\"quote");
  EXPECT_EQ((*parsed)[4][0], "multi\nline");
  EXPECT_EQ((*parsed)[5][0], "cr\rcell");
  EXPECT_EQ((*parsed)[6][0], "");
  EXPECT_EQ((*parsed)[6][1], "6");
}

TEST(CsvTest, ParseCsvRejectsMalformedDocuments) {
  // Unterminated quoted cell.
  EXPECT_FALSE(parse_csv("a,b\n\"open,1\n").has_value());
  // Bytes between the closing quote and the separator.
  EXPECT_FALSE(parse_csv("\"x\"y,1\n").has_value());
  // A quote opening mid-cell.
  EXPECT_FALSE(parse_csv("ab\"c,1\n").has_value());
  // Well-formed edge cases parse.
  const auto bare = parse_csv("a");
  ASSERT_TRUE(bare.has_value());
  ASSERT_EQ(bare->size(), 1u);
  EXPECT_EQ((*bare)[0][0], "a");
  EXPECT_TRUE(parse_csv("").has_value());
  EXPECT_TRUE(parse_csv("")->empty());
}

TEST(MetricsCsvTest, EvilHistogramNamesRoundTripThroughQuoting) {
  // Histogram names are provider strings today, but the CSV layer must
  // not corrupt the table if one ever carries a delimiter.
  obs::Metrics metrics;
  metrics.histogram("evil,provider\"quote\"\nnewline").record(12.0);
  metrics.histogram("plain").record(7.0);
  const std::string text = metrics_csv(metrics).str();
  const auto parsed = parse_csv(text);
  ASSERT_TRUE(parsed.has_value());
  bool found = false;
  for (const auto& row : *parsed) {
    ASSERT_GE(row.size(), 2u);
    if (row[1] == "evil,provider\"quote\"\nnewline.count") found = true;
    // Every row keeps the header's cell count: quoting kept the evil
    // name inside one cell.
    EXPECT_EQ(row.size(), parsed->front().size());
  }
  EXPECT_TRUE(found) << text;
}

TEST(TimeseriesCsvTest, EmitsCounterAndLatencyRows) {
  obs::MetricSeries series(netsim::from_ms(250.0));
  series.add_count({"loss_retry", "", ""}, netsim::from_ms(10.0), 3);
  series.record_latency({"doh_ms", "Cloudflare", ""}, netsim::from_ms(300.0),
                        42.0);
  const auto parsed = parse_csv(timeseries_csv(series).str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 4u);
  EXPECT_EQ(parsed->front(),
            (std::vector<std::string>{"metric", "provider", "country",
                                      "window_start_ms", "count", "p50_ms",
                                      "p90_ms", "p99_ms"}));
  // Counter row: count filled, quantile cells empty.
  EXPECT_EQ((*parsed)[1][0], "loss_retry");
  EXPECT_EQ((*parsed)[1][3], "0");
  EXPECT_EQ((*parsed)[1][4], "3");
  EXPECT_EQ((*parsed)[1][5], "");
  // The latency track starts in the second window, so the dense
  // rendering emits the first window as an explicit zero row...
  EXPECT_EQ((*parsed)[2][0], "doh_ms");
  EXPECT_EQ((*parsed)[2][1], "Cloudflare");
  EXPECT_EQ((*parsed)[2][3], "0");
  EXPECT_EQ((*parsed)[2][4], "0");
  EXPECT_EQ((*parsed)[2][5], "");
  // ...then the populated second window with quantiles present.
  EXPECT_EQ((*parsed)[3][0], "doh_ms");
  EXPECT_EQ((*parsed)[3][3], "250");
  EXPECT_EQ((*parsed)[3][4], "1");
  EXPECT_FALSE((*parsed)[3][5].empty());
}

// A track whose first sample lands mid-campaign must render every
// leading window as an explicit zero row — downstream consumers (the
// burn-rate timeline, the health-report chart) read the window axis as
// dense, and a silently missing window would shift it.
TEST(TimeseriesCsvTest, WindowsStartingMidCampaignRenderLeadingZeros) {
  obs::MetricSeries series(netsim::from_ms(250.0));
  // Counter first seen in window 3, latency first seen in window 2.
  series.add_count({"fault_provider_outage", "", ""},
                   netsim::from_ms(800.0), 5);
  series.record_latency({"do53_ms", "", ""}, netsim::from_ms(510.0), 9.0);
  const auto parsed = parse_csv(timeseries_csv(series).str());
  ASSERT_TRUE(parsed.has_value());
  // Header + 4 counter windows (0..3) + 3 latency windows (0..2).
  ASSERT_EQ(parsed->size(), 8u);
  for (int window = 0; window < 4; ++window) {
    const std::vector<std::string>& row = (*parsed)[1 + window];
    EXPECT_EQ(row[0], "fault_provider_outage") << window;
    EXPECT_EQ(row[3], std::to_string(window * 250)) << window;
    EXPECT_EQ(row[4], window == 3 ? "5" : "0") << window;
    EXPECT_EQ(row[5], "") << window;
  }
  for (int window = 0; window < 3; ++window) {
    const std::vector<std::string>& row = (*parsed)[5 + window];
    EXPECT_EQ(row[0], "do53_ms") << window;
    EXPECT_EQ(row[3], std::to_string(window * 250)) << window;
    EXPECT_EQ(row[4], window == 2 ? "1" : "0") << window;
    // Empty quantile cells mark the zero windows.
    EXPECT_EQ(row[5].empty(), window != 2) << window;
  }
}

TEST(SloReportTest, AvailabilityCsvHasPerWindowAndRollupRows) {
  obs::SloConfig config;
  config.window = netsim::from_ms(1000.0);
  config.p99_objective_ms = 50.0;
  obs::SloTracker tracker(config);
  tracker.record("Quad9", "SE", netsim::from_ms(100.0),
                 obs::Outcome::kOk, 10.0, true);
  tracker.record("Quad9", "SE", netsim::from_ms(2500.0),
                 obs::Outcome::kProviderOutage);
  tracker.record("Quad9", "SE", netsim::from_ms(2600.0),
                 obs::Outcome::kOk, 80.0, true);  // slow success

  const auto parsed = parse_csv(availability_csv(tracker).str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->front().front(), "provider");
  // Two keys (aggregate + SE), two populated windows each, one roll-up
  // row each.
  ASSERT_EQ(parsed->size(), 7u);
  const std::size_t cells = parsed->front().size();
  for (const auto& row : *parsed) EXPECT_EQ(row.size(), cells);
  // Aggregate key sorts first (empty country), roll-up row closes each
  // key block with an empty window cell.
  EXPECT_EQ((*parsed)[1][1], "");
  EXPECT_EQ((*parsed)[1][2], "0");
  EXPECT_EQ((*parsed)[2][2], "2000");
  EXPECT_EQ((*parsed)[3][2], "");  // aggregate roll-up
  EXPECT_EQ((*parsed)[4][1], "SE");
  // Roll-up availability: 2 good of 3 total.
  const std::size_t avail_col = cells - 1;
  EXPECT_EQ((*parsed)[3][avail_col], "0.666667");
  // One slow sample counted against the latency budget.
  EXPECT_EQ((*parsed)[3][cells - 2], "1");
}

TEST(SloReportTest, AlertsCsvAndOpenMetricsRenderDeterministically) {
  obs::SloConfig config;
  obs::SloTracker tracker(config);
  tracker.record("Google", "", netsim::Duration{},
                 obs::Outcome::kTimeoutGiveup);
  tracker.record("Google", "DE", netsim::from_ms(61'000.0),
                 obs::Outcome::kOk);

  const std::vector<obs::SloAlert> alerts = {
      {"Google", "page", 300000, 15.1, 14.9}};
  EXPECT_EQ(slo_alerts_csv(alerts).str(),
            "provider,severity,window_start_ms,burn_short,burn_long\n"
            "Google,page,300000,15.1,14.9\n");

  const std::string om = slo_openmetrics_text(tracker);
  EXPECT_NE(om.find("# TYPE dohperf_availability gauge"),
            std::string::npos);
  EXPECT_NE(om.find("dohperf_availability{provider=\"Google\","
                    "country=\"\"}"),
            std::string::npos)
      << om;
  EXPECT_NE(om.find("# TYPE dohperf_error_budget_consumed gauge"),
            std::string::npos);
  // No document framing: the scenario runner owns "# EOF".
  EXPECT_EQ(om.find("# EOF"), std::string::npos);
}

TEST(TimeseriesCsvTest, OpenMetricsTextIsWellShaped) {
  obs::MetricSeries series(netsim::from_ms(250.0));
  series.add_count({"retry give-up", "P\"x", "DE"}, netsim::from_ms(0.0), 2);
  series.record_latency({"doh_ms", "Quad9", ""}, netsim::from_ms(0.0), 10.0);
  const std::string text = openmetrics_text(series);
  // Metric names are sanitized, label values escaped, stream terminated.
  EXPECT_NE(text.find("# TYPE dohperf_retry_give_up_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dohperf_retry_give_up_total{provider=\"P\\\"x\","),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dohperf_doh_ms summary"), std::string::npos);
  EXPECT_NE(text.find("dohperf_doh_ms_count{"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(AnomalyReportTest, IndexCsvAndDumpsMatchRetainedRecords) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 10.0;
  obs::FlightRecorder recorder(policy);
  recorder.examine_flow(7, 1, "shard-exit-7-run-0", "doh:Quad9", 120.0, {},
                        {});
  ASSERT_EQ(recorder.retained().size(), 1u);

  // Attach a replayed span tree the way the campaign's replay pass does.
  obs::SpanContext flow;
  const netsim::SimTime epoch{};
  const auto root = flow.open("flow", epoch);
  flow.close(root, epoch + netsim::from_ms(120.0));
  recorder.attach_spans(obs::FlowKey{7, 1},
                        obs::rebase_to_epoch(flow.spans(), epoch));

  const auto parsed = parse_csv(anomaly_index_csv(recorder).str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1][0], "7");
  EXPECT_EQ((*parsed)[1][1], "1");
  EXPECT_EQ((*parsed)[1][2], "shard-exit-7-run-0");
  EXPECT_EQ((*parsed)[1][3], "doh:Quad9");
  EXPECT_EQ((*parsed)[1][4], "slow_flow");
  EXPECT_EQ((*parsed)[1][7], "anomaly-7-1.json");

  const std::filesystem::path dir = tests::scratch_path("dohperf_anomaly_test");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(write_anomaly_dumps(recorder, dir.string()), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir / "anomalies.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "anomaly-7-1.json"));
  std::filesystem::remove_all(dir);
}

TEST(CsvTest, WriteFileFailureThrows) {
  CsvWriter csv({"x"});
  // A regular file in the parent chain defeats both the directory
  // creation and the open, so the failure still surfaces as a throw.
  const std::filesystem::path blocker =
      tests::scratch_path("dohperf_csv_blocker");
  { std::ofstream(blocker.string()) << "x"; }
  EXPECT_THROW(csv.write_file((blocker / "nested.csv").string()),
               std::runtime_error);
  std::filesystem::remove(blocker);
}

TEST(CsvTest, FailedFinalFlushThrows) {
  // A short document sits in the stream buffer until the file is closed,
  // so only the flush at close can hit the full device.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  EXPECT_THROW(csv.write_file("/dev/full"), std::runtime_error);
  EXPECT_THROW(obs::write_text_file("/dev/full", "short\n"),
               std::runtime_error);
  EXPECT_THROW(obs::write_text_file("/dev/full", {"# stamp\n", "body\n"}),
               std::runtime_error);
}

TEST(WriteTextFileTest, RewriteReplacesThePreviousFileUnderItsReaders) {
  const std::filesystem::path dir =
      tests::scratch_path("dohperf_writer_replace");
  const std::filesystem::path path = dir / "out.csv";
  obs::write_text_file(path.string(), "the previous, longer run\n");
  std::filesystem::create_hard_link(path, dir / "kept.csv");
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader);

  // Truncating in place would hand the reader and the link the new bytes.
  obs::write_text_file(path.string(), {"# stamp\n", "new\n"});
  std::ostringstream seen;
  seen << reader.rdbuf();
  EXPECT_EQ(seen.str(), "the previous, longer run\n");
  EXPECT_EQ(obs::read_text_file((dir / "kept.csv").string()),
            "the previous, longer run\n");
  EXPECT_EQ(obs::read_text_file(path.string()), "# stamp\nnew\n");
  std::filesystem::remove_all(dir);
}

TEST(WriteTextFileTest, SymlinkStaysAndItsTargetGetsTheNewBytes) {
  const std::filesystem::path dir =
      tests::scratch_path("dohperf_writer_symlink");
  const std::filesystem::path target = dir / "target.csv";
  const std::filesystem::path link = dir / "link.csv";
  obs::write_text_file(target.string(), "previous\n");
  std::filesystem::create_symlink("target.csv", link);

  obs::write_text_file(link.string(), "new\n");
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(obs::read_text_file(target.string()), "new\n");
  std::filesystem::remove_all(dir);
}

TEST(WriteTextFileTest, DevicesAreWrittenInPlaceNeverReplaced) {
  // Tests may run as root, which can unlink a device node: the writer
  // must check the file type before it replaces anything.
  for (const char* device : {"/dev/null", "/dev/full"}) {
    if (!std::filesystem::is_character_file(device)) {
      GTEST_SKIP() << "no " << device << " on this system";
    }
  }
  EXPECT_NO_THROW(obs::write_text_file("/dev/null", "discarded\n"));
  try {
    obs::write_text_file("/dev/full", "short\n");
    ADD_FAILURE() << "writing /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "write failed: /dev/full");
  }
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/null"));
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

std::string printf_g6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// Counts the values whose NumText::g6 text differs from printf's and
/// reports the first one.
void expect_g6_matches_printf(const std::vector<double>& values,
                              const char* what) {
  std::size_t mismatches = 0;
  std::string first;
  for (const double v : values) {
    const std::string want = printf_g6(v);
    const NumText got = NumText::g6(v);
    if (got.view() != want && mismatches++ == 0) {
      first = want + " vs " + std::string(got.view());
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first mismatch " << first;
}

TEST(FormatTest, G6MatchesPrintfOnHistogramEdges) {
  std::vector<double> values;
  for (int i = 0; i < obs::LatencyHistogram::kBucketCount; ++i) {
    for (const double edge : {obs::LatencyHistogram::bucket_lower_ms(i),
                              obs::LatencyHistogram::bucket_upper_ms(i)}) {
      values.push_back(edge);
      values.push_back(-edge);
    }
  }
  expect_g6_matches_printf(values, "bucket edges");
}

TEST(FormatTest, G6MatchesPrintfOnWindowStarts) {
  for (const double width_ms : {250.0, 300'000.0}) {
    const obs::MetricSeries series(netsim::from_ms(width_ms));
    std::vector<double> values;
    for (std::int64_t k = 0; k <= 1'000'000; ++k) {
      values.push_back(series.window_start_ms(k));
    }
    expect_g6_matches_printf(values, width_ms == 250.0 ? "k*250" : "k*3e5");
  }
}

TEST(FormatTest, G6MatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(20211102);
  std::uniform_real_distribution<double> exponent(-30.0, 30.0);
  std::vector<double> values;
  values.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    const double magnitude = std::pow(10.0, exponent(rng));
    values.push_back((rng() & 1) != 0 ? -magnitude : magnitude);
  }
  expect_g6_matches_printf(values, "random doubles");
}

TEST(FormatTest, G6MatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.0,  -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), inf, -inf, nan, -nan};
  expect_g6_matches_printf(values, "special values");
  EXPECT_EQ(NumText::g6(-0.0).view(), "-0");
  EXPECT_EQ(NumText::g6(inf).view(), "inf");
}

TEST(FormatTest, IntegersMatchToString) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(NumText(v).view(), std::to_string(v));
  }
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(NumText(max).view(), std::to_string(max));
  EXPECT_EQ(NumText(std::uint32_t{7}).view(), "7");
}

TEST(FormatTest, LabelValuesEscapeBackslashQuoteAndNewline) {
  std::string out = "x=";
  append_label_value(out, "a\\b\"c\nd,e");
  EXPECT_EQ(out, "x=a\\\\b\\\"c\\nd,e");
}

}  // namespace
}  // namespace dohperf::report
