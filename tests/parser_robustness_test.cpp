// Parser robustness sweeps: every decoder must survive arbitrary bytes —
// either parse or reject cleanly (ParseError / nullopt), never crash,
// hang, or read out of bounds. The CSV files dohperf reads back get
// structured mutations as well, and each mutant must be rejected with a
// diagnostic naming the file, the row and the column; so does an exported
// trace, whose mutants must be rejected naming the event and the field.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/errors.h"
#include "dns/wire.h"
#include "measure/dataset_io.h"
#include "measure/flows.h"
#include "netsim/random.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/trace_export.h"
#include "obs/trace_load.h"
#include "proxy/headers.h"
#include "report/anomalies.h"
#include "report/attribution.h"
#include "report/slo.h"
#include "report/timeseries.h"
#include "scenario/spec.h"
#include "transport/base64.h"
#include "transport/http.h"
#include "world/world_model.h"
#include "scratch_path.h"

namespace dohperf {
namespace {

std::vector<std::uint8_t> random_bytes(netsim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class FuzzSweep : public ::testing::TestWithParam<int> {
 protected:
  netsim::Rng rng{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1};
};

TEST_P(FuzzSweep, DnsDecodeNeverCrashesOnRandomBytes) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const auto bytes = random_bytes(rng, n);
    try {
      (void)dns::decode(bytes);
    } catch (const dns::ParseError&) {
      // Clean rejection is the expected path.
    }
  }
}

TEST_P(FuzzSweep, DnsDecodeSurvivesBitflippedValidMessages) {
  // Start from a valid message and flip a few bytes: the decoder must
  // either produce some message or throw ParseError.
  auto wire = dns::encode(dns::Message::make_query(
      0xABCD, dns::DomainName::parse("f47ac10b.a.com")));
  for (int i = 0; i < 400; ++i) {
    auto corrupted = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    try {
      (void)dns::decode(corrupted);
    } catch (const dns::ParseError&) {
    }
  }
}

TEST_P(FuzzSweep, DnsDecodeSurvivesTruncationAtEveryLength) {
  const auto wire = dns::encode(dns::Message::make_query(
      1, dns::DomainName::parse("some-long-uuid-label.a.com")));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + len);
    EXPECT_THROW((void)dns::decode(prefix), dns::ParseError) << len;
  }
}

TEST_P(FuzzSweep, HttpParsersNeverCrashOnRandomText) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)transport::parse_request(text);   // optional; must not throw
    (void)transport::parse_response(text);
  }
}

TEST_P(FuzzSweep, HttpParsersSurviveMangledValidMessages) {
  transport::HttpResponse resp;
  resp.status = 200;
  resp.headers.add("x-luminati-tun-timeline", "dns=1.0 connect=2.0");
  resp.body = "data";
  const std::string wire = resp.serialize();
  for (int i = 0; i < 300; ++i) {
    std::string mangled = wire;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mangled.size()) - 1));
    mangled[pos] = static_cast<char>(rng.next());
    (void)transport::parse_response(mangled);
  }
}

TEST_P(FuzzSweep, HeaderTimelineParsersNeverCrash) {
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)proxy::parse_tun_timeline(text);
    (void)proxy::parse_timeline(text);
  }
}

TEST_P(FuzzSweep, Base64DecodeNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 120));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    const auto decoded = transport::base64url_decode(text);
    if (decoded) {
      // Whatever decoded must re-encode to the same text (canonical
      // unpadded form) when the input was canonical.
      EXPECT_EQ(transport::base64url_encode(*decoded).size(),
                text.size());
    }
  }
}

TEST_P(FuzzSweep, DecodeEncodeDecodeIsStable) {
  // If random bytes happen to parse as DNS, re-encoding and re-decoding
  // must be a fixed point (canonicalisation converges in one step).
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(12, 200));
    const auto bytes = random_bytes(rng, n);
    dns::Message first;
    try {
      first = dns::decode(bytes);
    } catch (const dns::ParseError&) {
      continue;
    }
    const auto reencoded = dns::encode(first);
    const dns::Message second = dns::decode(reencoded);
    EXPECT_EQ(first, second);
  }
}

TEST_P(FuzzSweep, JsonParseNeverCrashesOnRandomBytes) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)obs::json::parse(text);  // optional; must not throw
  }
}

TEST_P(FuzzSweep, JsonParseSurvivesMangledValidDocuments) {
  const std::string wire =
      R"({"traceEvents":[{"name":"flow 😀","ph":"X","ts":0,)"
      R"("dur":5,"args":{"id":0,"parent":null}}],"displayTimeUnit":"ms"})";
  ASSERT_TRUE(obs::json::parse(wire).has_value());
  for (int i = 0; i < 300; ++i) {
    std::string mangled = wire;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mangled.size()) - 1));
    mangled[pos] = static_cast<char>(rng.next());
    (void)obs::json::parse(mangled);
  }
}

TEST_P(FuzzSweep, JsonParseRejectsRunawayNestingWithoutOverflow) {
  // Random deep nesting, far past the parser's depth limit: every
  // variant must come back nullopt promptly instead of recursing until
  // the stack dies.
  for (int i = 0; i < 20; ++i) {
    const int depth = static_cast<int>(rng.uniform_int(100, 4000));
    std::string text;
    for (int d = 0; d < depth; ++d) {
      text += rng.uniform_int(0, 1) == 0 ? "[" : "{\"k\":";
    }
    EXPECT_FALSE(obs::json::parse(text).has_value());
  }
}

TEST_P(FuzzSweep, TraceLoaderNeverCrashesAndNeverReturnsPartialSpans) {
  for (int i = 0; i < 100; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    const obs::TraceLoadResult result = obs::parse_trace(text, "<fuzz>");
    // Strict contract: either spans or a diagnostic, never both/neither.
    EXPECT_NE(result.spans.empty(), result.error.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Structured mutations of an exported trace: each event of a real
// DoH-via-proxy trace gets one defect at a time in the fields the trace
// loader reads, and each mutant must be rejected with a diagnostic naming
// the event index and the field.

/// The Perfetto trace of one DoH-via-proxy measurement in a small world.
std::string proxied_flow_trace() {
  world::WorldConfig config;
  config.seed = 1234;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "US"};
  world::WorldModel world(config);
  netsim::Rng pick = world.rng().split("trace-mutants");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", pick);

  const netsim::Site& super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;

  obs::SpanContext spans;
  world.run_flow([&](netsim::NetCtx& net) {
    net.spans = &spans;
    return measure::doh_via_proxy(net, *exit, super_proxy,
                                  world.doh_server(0, 0));
  });
  return obs::perfetto_trace_json(spans);
}

/// `v` as JSON text; numbers keep every digit a double holds.
std::string to_json(const obs::json::Value& v) {
  using Type = obs::json::Value::Type;
  std::string out;
  switch (v.type()) {
    case Type::kNull: return "null";
    case Type::kBool: return v.as_bool() ? "true" : "false";
    case Type::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
      return buf;
    }
    case Type::kString: return "\"" + obs::json::escape(v.as_string()) + "\"";
    case Type::kArray:
      for (const obs::json::Value& item : v.as_array()) {
        out += (out.empty() ? "" : ",") + to_json(item);
      }
      return "[" + out + "]";
    case Type::kObject:
      for (const auto& [key, item] : v.as_object()) {
        out += (out.empty() ? "\"" : ",\"") + obs::json::escape(key) +
               "\":" + to_json(item);
      }
      return "{" + out + "}";
  }
  return out;
}

/// `trace` with `field` ("ts", "args.id", ...) of traceEvents[index] set
/// to `value`, or dropped when `value` is std::nullopt.
std::string with_field(const obs::json::Value& trace, std::size_t index,
                       const std::string& field,
                       const std::optional<obs::json::Value>& value) {
  obs::json::Object doc = trace.as_object();
  obs::json::Array events = doc.at("traceEvents").as_array();
  obs::json::Object event = events.at(index).as_object();
  const bool in_args = field.starts_with("args.");
  obs::json::Object args =
      in_args ? event.at("args").as_object() : obs::json::Object{};
  obs::json::Object& target = in_args ? args : event;
  const std::string key = in_args ? field.substr(5) : field;
  if (value) {
    target[key] = *value;
  } else {
    target.erase(key);
  }
  if (in_args) event["args"] = obs::json::Value(std::move(args));
  events[index] = obs::json::Value(std::move(event));
  doc["traceEvents"] = obs::json::Value(std::move(events));
  return to_json(obs::json::Value(std::move(doc)));
}

TEST(TraceMutationTest, LoaderRejectsEveryMutantOfAProxiedFlowTrace) {
  const std::string text = proxied_flow_trace();
  const obs::TraceLoadResult valid = obs::parse_trace(text, "trace.json");
  ASSERT_TRUE(valid.ok()) << valid.error;
  const std::optional<obs::json::Value> doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(obs::parse_trace(to_json(*doc), "trace.json").spans, valid.spans)
      << "the re-serialization must be exact";

  std::size_t mutants = 0;
  const auto expect_rejected = [&](const std::string& mutant,
                                   std::size_t index,
                                   const std::string& field) {
    ++mutants;
    const obs::TraceLoadResult result = obs::parse_trace(mutant, "trace.json");
    const std::string where = "trace.json: traceEvents[" +
                              std::to_string(index) + "]." + field + ":";
    EXPECT_TRUE(result.spans.empty() &&
                result.error.find(where) != std::string::npos)
        << "want \"" << where << "\", got \"" << result.error << "\"";
  };
  using obs::json::Value;
  const std::size_t n = valid.spans.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string field :
         {"ts", "dur", "args.id", "args.parent", "args.bytes"}) {
      for (const double number :
           {0.5, -1.0, 1e300, 4294967295.0, 4294967296.0}) {
        const std::string mutant = with_field(*doc, i, field, Value(number));
        const bool count = field == "ts" || field == "dur" ||
                           field == "args.bytes";
        const bool whole = number == 4294967295.0 || number == 4294967296.0;
        if (!count || !whole) {
          expect_rejected(mutant, i, field);
          continue;
        }
        // Past 32 bits is still a valid count, and it must load whole.
        const obs::TraceLoadResult loaded =
            obs::parse_trace(mutant, "trace.json");
        ASSERT_TRUE(loaded.ok()) << field << " " << loaded.error;
        const obs::Span& span = loaded.spans[i];
        const auto read = static_cast<double>(
            field == "ts"    ? span.start.time_since_epoch().count()
            : field == "dur" ? (span.end - span.start).count()
                             : static_cast<std::int64_t>(span.bytes));
        EXPECT_EQ(read, number) << "traceEvents[" << i << "]." << field;
      }
    }
    for (const std::string field :
         {"name", "cat", "ts", "dur", "args", "args.id", "args.parent"}) {
      expect_rejected(with_field(*doc, i, field, std::nullopt), i, field);
    }
    expect_rejected(with_field(*doc, i, "cat", Value(std::string("bogus"))),
                    i, "cat");
    if (i + 1 < n) {
      const double later = valid.spans[i + 1].id;
      expect_rejected(with_field(*doc, i, "args.parent", Value(later)), i,
                      "args.parent");
    }
    if (i > 0) {
      const double taken = valid.spans[i - 1].id;
      expect_rejected(with_field(*doc, i, "args.id", Value(taken)), i,
                      "args.id");
    }
    // args.bytes is optional: a span without it carries zero bytes.
    const obs::TraceLoadResult unbilled = obs::parse_trace(
        with_field(*doc, i, "args.bytes", std::nullopt), "trace.json");
    ASSERT_TRUE(unbilled.ok()) << unbilled.error;
    EXPECT_EQ(unbilled.spans[i].bytes, 0u);
  }
  EXPECT_GT(mutants, n * 25);
}

// ---------------------------------------------------------------------
// Structured mutations of the CSV files dohperf reads back: the saved
// dataset (measure::load_dataset), the attribution CSV
// (report::load_attribution_csv), and the series, anomaly index,
// availability and alerts CSVs (tools/obs_report). Each valid file is
// mutated one defect at a time: a column dropped, duplicated or renamed;
// one numeric cell replaced by a value the number rule rejects; the file
// cut in the middle of a row.

namespace fs = std::filesystem;

/// What a column holds. "-1" and 18446744073709551616 are finite doubles,
/// so only integer cells get them; only int cells get 2147483648.
enum class Col { kText, kUnsigned, kInt, kDouble };
using ColumnTypes = std::map<std::string, Col>;

/// A CSV file as its comment lines and comma-separated rows (none of the
/// files mutated here quotes a cell).
struct SplitCsv {
  std::vector<std::string> comments;
  std::vector<std::vector<std::string>> rows;  // header first

  explicit SplitCsv(const std::string& text) {
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (line.starts_with('#')) {
        comments.push_back(line);
        continue;
      }
      std::vector<std::string>& row = rows.emplace_back();
      std::size_t start = 0;
      for (std::size_t comma; (comma = line.find(',', start)) !=
                              std::string::npos;
           start = comma + 1) {
        row.push_back(line.substr(start, comma - start));
      }
      row.push_back(line.substr(start));
    }
  }

  [[nodiscard]] std::string str() const {
    std::string out;
    for (const std::string& comment : comments) out += comment + "\n";
    for (const std::vector<std::string>& row : rows) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        out += (c == 0 ? "" : ",") + row[c];
      }
      out += "\n";
    }
    return out;
  }
};

/// Every single-defect mutant of `text`, whose columns are `types`.
std::vector<std::string> csv_mutants(const std::string& text,
                                     const ColumnTypes& types) {
  const SplitCsv valid(text);
  EXPECT_EQ(valid.str(), text) << "the split must be exact";
  std::vector<std::string> out;
  const std::vector<std::string>& header = valid.rows.front();
  for (std::size_t c = 0; c < header.size(); ++c) {
    SplitCsv dropped = valid, duplicated = valid, renamed = valid;
    for (auto& row : dropped.rows) row.erase(row.begin() + c);
    for (auto& row : duplicated.rows) row.push_back(row[c]);
    renamed.rows.front()[c] += "_renamed";
    out.insert(out.end(), {dropped.str(), duplicated.str(), renamed.str()});

    const auto type = types.find(header[c]);
    EXPECT_NE(type, types.end()) << "no type for column " << header[c];
    if (type == types.end() || type->second == Col::kText) continue;
    std::vector<std::string> values = {" 5", "0x10", "inf", "nan"};
    if (type->second != Col::kDouble) {
      values.insert(values.end(), {"-1", "18446744073709551616"});
    }
    if (type->second == Col::kInt) values.push_back("2147483648");
    for (std::size_t r = 1; r < valid.rows.size(); ++r) {
      for (const std::string& value : values) {
        SplitCsv mutant = valid;
        mutant.rows[r][c] = value;
        out.push_back(mutant.str());
      }
    }
  }
  // Cut in the middle of each row, the header's included.
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = text.find('\n', start);
    if (text[start] != '#') {
      out.push_back(text.substr(0, start + (end - start) / 2));
    }
    start = end + 1;
  }
  return out;
}

/// `diagnose` loads a document and returns its diagnostic, or "" when the
/// document loads. `text` must load; every mutant must be rejected with a
/// diagnostic naming `file`, the row and the column.
void expect_every_mutant_rejected(
    const std::string& file, const std::string& text,
    const ColumnTypes& types,
    const std::function<std::string(const std::string&)>& diagnose) {
  ASSERT_EQ(diagnose(text), "") << file << " must load as written";
  const std::vector<std::string> mutants = csv_mutants(text, types);
  EXPECT_GT(mutants.size(), types.size() * 3);
  for (const std::string& mutant : mutants) {
    const std::string error = diagnose(mutant);
    ASSERT_TRUE(error.find(file) != std::string::npos &&
                error.find(": row ") != std::string::npos &&
                error.find(", column ") != std::string::npos)
        << "diagnostic: \"" << error << "\"\nmutant of " << file << ":\n"
        << mutant;
  }
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(CsvMutationTest, SavedDatasetRejectsEveryMutant) {
  measure::Dataset data;
  data.add_client({17, "SE", {59.33, 18.07}, 3912.5});
  data.add_client({18, "BR", {-23.55, -46.63}, 4.25});
  for (const std::uint64_t exit : {17, 18}) {
    measure::DohRecord doh;
    doh.exit_id = exit;
    doh.iso2 = data.intern(exit == 17 ? "SE" : "BR");
    doh.provider = data.intern("Cloudflare");
    doh.run = 1;
    doh.pop_index = 42;
    doh.pop_distance_miles = 123.456789;
    doh.potential_improvement_miles = 0.125;
    doh.tdoh_ms = 338.0123456789;
    doh.tdohr_ms = 257.5;
    data.add_doh(doh);
  }
  data.add_do53({17, data.intern("SE"), 0, false, 234.25});
  data.add_do53({measure::kAtlasExitId, data.intern("US"), 0, true, 48.75});
  data.discarded_mismatch = 3;
  data.failed_measurements = 9;

  const fs::path dir = tests::scratch_path("dohperf_csv_mutants");
  measure::save_dataset(data, dir.string());
  using enum Col;
  const std::map<std::string, ColumnTypes> files = {
      {"clients.csv",
       {{"exit_id", kUnsigned}, {"iso2", kText}, {"lat", kDouble},
        {"lon", kDouble}, {"ns_distance_miles", kDouble}}},
      {"doh.csv",
       {{"exit_id", kUnsigned}, {"iso2", kText}, {"provider", kText},
        {"run", kInt}, {"pop_index", kUnsigned},
        {"pop_distance_miles", kDouble},
        {"potential_improvement_miles", kDouble}, {"tdoh_ms", kDouble},
        {"tdohr_ms", kDouble}}},
      {"do53.csv",
       {{"exit_id", kUnsigned}, {"iso2", kText}, {"run", kInt},
        {"via_atlas", kInt}, {"do53_ms", kDouble}}},
      {"meta.csv",
       {{"discarded_mismatch", kUnsigned},
        {"failed_measurements", kUnsigned}}},
  };
  for (const auto& [file, types] : files) {
    const fs::path path = dir / file;
    const std::string valid = read_text(path);
    expect_every_mutant_rejected(
        file, valid, types, [&](const std::string& text) {
          write_text(path, text);
          std::string error;
          try {
            (void)measure::load_dataset(dir.string());
          } catch (const std::runtime_error& e) {
            error = e.what();
          }
          write_text(path, valid);
          return error;
        });
  }
  fs::remove_all(dir);
}

/// A provenance stamp whose spec name holds a quote, as a valid spec can.
constexpr const char* kQuotedStamp =
    "# dohperf-spec name=a\"b hash=0123456789abcdef sink=retained\n";

TEST(CsvMutationTest, AttributionCsvRejectsEveryMutant) {
  obs::FlowAttribution flow;
  flow.begin(netsim::SimTime(netsim::from_ms(0.0)));
  const auto token = flow.push(obs::Phase::kTlsHandshake,
                               netsim::SimTime(netsim::from_ms(0.0)));
  flow.pop(token, netsim::SimTime(netsim::from_ms(20.0)));
  flow.end(netsim::SimTime(netsim::from_ms(50.0)));
  obs::AttributionLedger ledger;
  ledger.record("Cloudflare", "SE", "doh", flow);

  using enum Col;
  expect_every_mutant_rejected(
      "attribution.csv",
      kQuotedStamp + report::attribution_csv(ledger).str(),
      {{"provider", kText}, {"country", kText}, {"transport", kText},
       {"phase", kText}, {"flows", kUnsigned}, {"us", kUnsigned},
       {"p50_ms", kDouble}, {"p90_ms", kDouble}, {"p99_ms", kDouble}},
      [](const std::string& text) {
        std::string error;
        return report::load_attribution_csv(text, "attribution.csv", &error)
                   ? std::string()
                   : error;
      });
}

/// obs_report's output for `args` when it exits nonzero, "" when it
/// renders.
std::string obs_report_error(const std::string& args) {
  const std::string command =
      std::string(DOHPERF_OBS_REPORT) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "popen failed";
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  return pclose(pipe) == 0 ? std::string() : output;
}

TEST(CsvMutationTest, ObsReportRejectsEveryMutantOfItsInputs) {
  obs::MetricSeries series;
  series.record_latency({"doh_ms", "Cloudflare", ""}, netsim::from_ms(10.0),
                        41.5);
  series.record_latency({"doh_ms", "Cloudflare", "SE"},
                        netsim::from_ms(10.0), 41.5);
  series.add_count({"fault_blackout", "", ""}, netsim::from_ms(300.0), 2);

  obs::SloConfig config;
  config.enabled = true;
  obs::SloTracker tracker(config);
  tracker.record("Cloudflare", "", netsim::from_ms(1000.0), obs::Outcome::kOk);
  tracker.record("Cloudflare", "", netsim::from_ms(2000.0),
                 obs::Outcome::kBlackout);
  const std::vector<obs::SloAlert> alerts = {
      {"Cloudflare", "page", 60000, 20.5, 15.25},
      {"Cloudflare", "ticket", 120000, 7.0, 6.5}};

  // Two retained anomalies with replayed trees; the directory the index
  // and the dumps go to is the one the CSVs go to.
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 10.0;
  obs::FlightRecorder recorder(policy);
  obs::MetricCounters gave_up;
  gave_up.retry_timeouts = 1;
  recorder.examine_flow(7, 1, "shard-exit-7-run-0", "doh:Quad9", 120.5, {},
                        {});
  recorder.examine_flow(9, 4, "shard-exit-9-run-1", "do53", 3.0, {},
                        gave_up);
  for (const auto& [key, rec] : recorder.retained()) {
    obs::SpanContext flow;
    const auto root = flow.open("flow", netsim::SimTime{});
    const auto phase = flow.open("tunnel", netsim::SimTime{});
    flow.close(phase, netsim::SimTime{} + netsim::from_ms(1.0));
    flow.close(root, netsim::SimTime{} + netsim::from_ms(rec.duration_ms));
    recorder.attach_spans(key, flow.spans());
  }

  const fs::path dir = tests::scratch_path("dohperf_obs_mutants");
  fs::create_directories(dir);
  ASSERT_EQ(report::write_anomaly_dumps(recorder, dir.string()), 2u);
  const std::map<std::string, std::string> valid = {
      {"series.csv", kQuotedStamp + report::timeseries_csv(series).str()},
      {"anomalies.csv", report::anomaly_index_csv(recorder).str()},
      {"availability.csv",
       kQuotedStamp + report::availability_csv(tracker).str()},
      {"alerts.csv", kQuotedStamp + report::slo_alerts_csv(alerts).str()},
  };
  for (const auto& [file, text] : valid) write_text(dir / file, text);
  const std::string args = (dir / "series.csv").string() + " " +
                           dir.string() + " " + (dir / "out.html").string() +
                           " " + (dir / "availability.csv").string() + " " +
                           (dir / "alerts.csv").string();

  using enum Col;
  const std::map<std::string, ColumnTypes> files = {
      {"series.csv",
       {{"metric", kText}, {"provider", kText}, {"country", kText},
        {"window_start_ms", kDouble}, {"count", kUnsigned},
        {"p50_ms", kDouble}, {"p90_ms", kDouble}, {"p99_ms", kDouble}}},
      {"anomalies.csv",
       {{"slot", kUnsigned}, {"flow_index", kUnsigned}, {"session", kText},
        {"flow", kText}, {"reasons", kText}, {"duration_ms", kDouble},
        {"spans", kUnsigned}, {"trace_file", kText}}},
      {"availability.csv",
       {{"provider", kText}, {"country", kText},
        {"window_start_ms", kUnsigned}, {"objective", kDouble},
        {"total", kUnsigned}, {"ok", kUnsigned}, {"fallback_ok", kUnsigned},
        {"brownout_degraded", kUnsigned}, {"timeout_giveup", kUnsigned},
        {"fallback_failed", kUnsigned}, {"provider_outage", kUnsigned},
        {"blackout", kUnsigned}, {"unreachable", kUnsigned},
        {"slow", kUnsigned}, {"availability", kDouble}}},
      {"alerts.csv",
       {{"provider", kText}, {"severity", kText},
        {"window_start_ms", kUnsigned}, {"burn_short", kDouble},
        {"burn_long", kDouble}}},
  };
  for (const auto& [file, types] : files) {
    const fs::path path = dir / file;
    expect_every_mutant_rejected(
        file, valid.at(file), types, [&](const std::string& text) {
          write_text(path, text);
          const std::string error = obs_report_error(args);
          write_text(path, valid.at(file));
          return error;
        });
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- Spec mutation sweep

/// Where a spec line's `#` comment starts (its size when it has none); a
/// '#' inside a quoted string is text, as the parser reads it.
std::size_t comment_start(std::string_view line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_string && line[i] == '\\') {
      ++i;
    } else if (line[i] == '"') {
      in_string = !in_string;
    } else if (!in_string && line[i] == '#') {
      return i;
    }
  }
  return line.size();
}

std::string trimmed(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t");
  if (first == std::string_view::npos) return "";
  return std::string(s.substr(first, s.find_last_not_of(" \t") - first + 1));
}

/// Every structural mutant of a valid spec: each `[section]` header and
/// each `key = value` line dropped, duplicated and renamed; each value
/// retyped as a quoted string, a bare word, a number, `true` and a list;
/// each quoted string and each list left unterminated; each list given a
/// trailing comma; and the file cut after every line.
std::vector<std::string> spec_mutants(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto join = [](auto first, auto last) {
    std::string out;
    for (; first != last; ++first) out += *first + "\n";
    return out;
  };
  EXPECT_EQ(join(lines.begin(), lines.end()), text) << "the split must be exact";

  std::vector<std::string> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Line i replaced by `replacement` (no lines: dropped).
    const auto replace = [&](std::vector<std::string> replacement) {
      std::vector<std::string> mutant(lines.begin(), lines.begin() + i);
      mutant.insert(mutant.end(), replacement.begin(), replacement.end());
      mutant.insert(mutant.end(), lines.begin() + i + 1, lines.end());
      out.push_back(join(mutant.begin(), mutant.end()));
    };
    const std::string& line = lines[i];
    const std::size_t cut = comment_start(line);
    const std::string code = trimmed(line.substr(0, cut));
    const std::string comment =
        cut < line.size() ? " " + line.substr(cut) : "";
    if (code.empty()) continue;
    replace({});
    replace({line, line});
    if (code.front() == '[') {
      replace({code.substr(0, code.size() - 1) + "_renamed]" + comment});
      continue;
    }
    // A valid spec's other lines are all `key = value`.
    const std::size_t eq = code.find('=');
    const std::string key = trimmed(code.substr(0, eq));
    const std::string value = trimmed(code.substr(eq + 1));
    const auto set = [&](const std::string& k, const std::string& v) {
      replace({k + " = " + v + comment});
    };
    set(key + "_renamed", value);
    for (const char* retyped : {"\"retyped\"", "retyped", "7", "true",
                                "[1, 2]"}) {
      set(key, retyped);
    }
    // Each string's closing quote removed, one at a time.
    bool in_string = false;
    for (std::size_t c = 0; c < value.size(); ++c) {
      if (in_string && value[c] == '\\') {
        ++c;
      } else if (value[c] == '"') {
        if (in_string) set(key, value.substr(0, c) + value.substr(c + 1));
        in_string = !in_string;
      }
    }
    if (value.front() == '[') {
      const std::string open = value.substr(0, value.size() - 1);
      set(key, open);
      set(key, open + ",]");
    }
  }
  for (std::size_t n = 0; n < lines.size(); ++n) {
    out.push_back(join(lines.begin(), lines.begin() + n));
  }
  return out;
}

/// Lines the parser numbers in `text`: a final newline ends the last
/// line rather than starting another.
int numbered_lines(const std::string& text) {
  const auto newlines = std::count(text.begin(), text.end(), '\n');
  return static_cast<int>(newlines) +
         (text.empty() || text.back() == '\n' ? 0 : 1);
}

/// "" when `mutant` either parses, its canonical text re-parsing to the
/// same canonical text, or fails with exactly one `spec: <origin>:<line>: `
/// diagnostic whose line is inside the mutant; else what broke.
std::string spec_oracle_failure(const std::string& mutant,
                                const std::string& origin) {
  const scenario::SpecParseResult parsed =
      scenario::parse_spec(mutant, origin);
  if (parsed.ok()) {
    const std::string canonical = scenario::canonical_text(parsed.doc);
    const scenario::SpecParseResult again =
        scenario::parse_spec(canonical, "<canonical>");
    if (!again.ok()) return "its canonical text fails: " + again.error;
    if (scenario::canonical_text(again.doc) != canonical) {
      return "its canonical text does not re-parse to itself";
    }
    return "";
  }
  const std::string& error = parsed.error;
  const std::string prefix = "spec: " + origin + ":";
  if (!error.starts_with(prefix)) return "no location prefix: " + error;
  int line = 0;
  const char* const last = error.data() + error.size();
  const auto [rest, ec] =
      std::from_chars(error.data() + prefix.size(), last, line);
  if (ec != std::errc{} || !std::string_view(rest, last).starts_with(": ")) {
    return "no line number: " + error;
  }
  if (line < 1 || line > numbered_lines(mutant)) {
    return "line outside the mutant: " + error;
  }
  if (error.find('\n') != std::string::npos ||
      error.find("spec: ", prefix.size()) != std::string::npos) {
    return "more than one diagnostic: " + error;
  }
  return "";
}

TEST(SpecMutationTest, EveryMutantParsesCanonicallyOrNamesOneLine) {
  const fs::path source = DOHPERF_SOURCE_DIR;
  std::vector<fs::path> specs;
  for (const char* dir : {"examples/specs", "tests/fixtures"}) {
    for (const auto& entry : fs::directory_iterator(source / dir)) {
      if (entry.path().extension() == ".spec") specs.push_back(entry.path());
    }
  }
  std::sort(specs.begin(), specs.end());

  std::size_t seeds = 0, parsed = 0, rejected = 0;
  for (const fs::path& path : specs) {
    const std::string text = read_text(path);
    const std::string origin = path.filename().string();
    // tests/fixtures also holds specs written to be rejected; only the
    // valid ones seed mutants, and every example must be valid.
    if (!scenario::parse_spec(text, origin).ok()) {
      EXPECT_EQ(path.parent_path().filename(), "fixtures")
          << origin << " must parse";
      continue;
    }
    ++seeds;
    for (const std::string& mutant : spec_mutants(text)) {
      ASSERT_EQ(spec_oracle_failure(mutant, origin), "")
          << "mutant of " << origin << ":\n" << mutant;
      ++(scenario::parse_spec(mutant, origin).ok() ? parsed : rejected);
    }
  }
  EXPECT_GE(seeds, 5u);
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, parsed);
}

}  // namespace
}  // namespace dohperf
