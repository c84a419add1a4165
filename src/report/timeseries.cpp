#include "report/timeseries.h"

#include "report/format.h"

namespace dohperf::report {
namespace {

/// OpenMetrics metric names: [a-zA-Z0-9_:], everything else folded to _.
std::string sanitize_metric(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

/// `{provider="..",country="..",window="`: the label text every sample of
/// one track opens with, built once per track. Each sample appends its
/// window and closes the set.
std::string track_labels(const obs::SeriesKey& key) {
  std::string out = "{provider=\"";
  append_label_value(out, key.provider);
  out += "\",country=\"";
  append_label_value(out, key.country);
  out += "\",window=\"";
  return out;
}

}  // namespace

CsvWriter timeseries_csv(const obs::MetricSeries& series) {
  CsvWriter csv({"metric", "provider", "country", "window_start_ms",
                 "count", "p50_ms", "p90_ms", "p99_ms"});
  const auto start = [&series](std::int64_t window) {
    return NumText::g6(series.window_start_ms(window));
  };
  // Tracks render densely from window 0 through their last live window:
  // a track whose first event lands in window k > 0 still emits k
  // explicit zero rows first, so downstream consumers can align tracks
  // by row position without re-deriving the window grid. One iterator
  // walks the sparse track alongside the dense window counter.
  for (const auto& [key, track] : series.counters()) {
    if (track.empty()) continue;
    auto it = track.lower_bound(0);
    for (std::int64_t window = 0; window <= track.rbegin()->first;
         ++window) {
      std::uint64_t count = 0;
      if (it->first == window) count = (it++)->second;
      csv.add_row({key.metric, key.provider, key.country, start(window),
                   NumText(count), "", "", ""});
    }
  }
  for (const auto& [key, track] : series.latencies()) {
    if (track.empty()) continue;
    auto it = track.lower_bound(0);
    for (std::int64_t window = 0; window <= track.rbegin()->first;
         ++window) {
      if (it->first != window) {
        // Empty quantile cells mark a zero window, same shape as the
        // counter rows.
        csv.add_row({key.metric, key.provider, key.country, start(window),
                     "0", "", "", ""});
        continue;
      }
      const obs::LatencyHistogram& hist = (it++)->second;
      csv.add_row({key.metric, key.provider, key.country, start(window),
                   NumText(hist.count()), NumText::g6(hist.quantile_ms(0.5)),
                   NumText::g6(hist.quantile_ms(0.9)),
                   NumText::g6(hist.quantile_ms(0.99))});
    }
  }
  return csv;
}

std::string openmetrics_text(const obs::MetricSeries& series) {
  std::string out;
  std::string last_header;
  const auto header = [&](const std::string& name, const char* type) {
    if (name == last_header) return;
    last_header = name;
    out += "# TYPE " + name + " " + type + "\n";
  };

  for (const auto& [key, track] : series.counters()) {
    const std::string name =
        "dohperf_" + sanitize_metric(key.metric) + "_total";
    header(name, "counter");
    const std::string prefix = name + track_labels(key);
    for (const auto& [window, count] : track) {
      out += prefix;
      out += NumText(window);
      out += "\"} ";
      out += NumText(count);
      out += '\n';
    }
  }
  for (const auto& [key, track] : series.latencies()) {
    const std::string name = "dohperf_" + sanitize_metric(key.metric);
    header(name, "summary");
    const std::string labels = track_labels(key);
    const std::string count_prefix = name + "_count" + labels;
    const std::string quantile_prefix = name + labels;
    for (const auto& [window, hist] : track) {
      const NumText w(window);
      out += count_prefix;
      out += w;
      out += "\"} ";
      out += NumText(hist.count());
      out += '\n';
      const std::pair<const char*, double> quantiles[] = {
          {"\",quantile=\"0.5\"} ", 0.5},
          {"\",quantile=\"0.9\"} ", 0.9},
          {"\",quantile=\"0.99\"} ", 0.99},
      };
      for (const auto& [label, q] : quantiles) {
        out += quantile_prefix;
        out += w;
        out += label;
        out += NumText::g6(hist.quantile_ms(q));
        out += '\n';
      }
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace dohperf::report
