#include "report/timeseries.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include "report/format.h"

namespace dohperf::report {
namespace {

/// OpenMetrics metric names: [a-zA-Z0-9_:], everything else folded to _.
std::string sanitize_metric(std::string_view name) {
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
std::string track_labels(std::string_view provider, std::string_view country) {
  std::string out = "{provider=\"";
  append_label_value(out, provider);
  out += "\",country=\"";
  append_label_value(out, country);
  out += "\",window=\"";
  return out;
}

}  // namespace

CsvWriter timeseries_csv(const obs::MetricSeries& series) {
  CsvWriter csv({"metric", "provider", "country", "window_start_ms",
                 "count", "p50_ms", "p90_ms", "p99_ms"});
  // Every track renders from window 0, so window k's start text is
  // formatted once, the first time a track reaches it.
  std::vector<NumText> starts;
  const auto start = [&](std::int64_t window) -> std::string_view {
    while (static_cast<std::int64_t>(starts.size()) <= window) {
      starts.push_back(NumText::g6(series.window_start_ms(
          static_cast<std::int64_t>(starts.size()))));
    }
    return starts[static_cast<std::size_t>(window)];
  };
  // Tracks render densely from window 0 through their last live window:
  // a track whose first event lands in window k > 0 still emits k
  // explicit zero rows first, so downstream consumers can align tracks
  // by row position without re-deriving the window grid. One iterator
  // walks the sparse track alongside the dense window counter.
  const auto& counters = series.counters();
  for (const auto* track : counters.sorted()) {
    const auto [metric, provider, country] = counters.names(track->ids);
    const obs::MetricSeries::CounterTrack& cells = track->value;
    if (cells.empty()) continue;
    auto it = cells.begin();
    for (std::int64_t window = 0; window <= cells.back().first; ++window) {
      std::uint64_t count = 0;
      if (it->first == window) count = (it++)->second;
      csv.add_row({metric, provider, country, start(window), NumText(count),
                   "", "", ""});
    }
  }
  const auto& latencies = series.latencies();
  for (const auto* track : latencies.sorted()) {
    const auto [metric, provider, country] = latencies.names(track->ids);
    const obs::MetricSeries::LatencyTrack& cells = track->value;
    if (cells.empty()) continue;
    auto it = cells.begin();
    for (std::int64_t window = 0; window <= cells.back().first; ++window) {
      if (it->first != window) {
        // Empty quantile cells mark a zero window, same shape as the
        // counter rows.
        csv.add_row({metric, provider, country, start(window), "0", "", "",
                     ""});
        continue;
      }
      const obs::LatencyHistogram& hist = (it++)->second;
      const auto [p50, p90, p99] = quantile_texts(hist);
      csv.add_row({metric, provider, country, start(window),
                   NumText(hist.count()), p50, p90, p99});
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

  const auto& counters = series.counters();
  for (const auto* track : counters.sorted()) {
    const auto [metric, provider, country] = counters.names(track->ids);
    const std::string name = "dohperf_" + sanitize_metric(metric) + "_total";
    header(name, "counter");
    const std::string prefix = name + track_labels(provider, country);
    for (const auto& [window, count] : track->value) {
      out += prefix;
      out += NumText(window);
      out += "\"} ";
      out += NumText(count);
      out += '\n';
    }
  }
  const auto& latencies = series.latencies();
  for (const auto* track : latencies.sorted()) {
    const auto [metric, provider, country] = latencies.names(track->ids);
    const std::string name = "dohperf_" + sanitize_metric(metric);
    header(name, "summary");
    const std::string labels = track_labels(provider, country);
    const std::string count_prefix = name + "_count" + labels;
    const std::string quantile_prefix = name + labels;
    static constexpr const char* kQuantileLabels[] = {
        "\",quantile=\"0.5\"} ", "\",quantile=\"0.9\"} ",
        "\",quantile=\"0.99\"} "};
    for (const auto& [window, hist] : track->value) {
      const NumText w(window);
      out += count_prefix;
      out += w;
      out += "\"} ";
      out += NumText(hist.count());
      out += '\n';
      const auto texts = quantile_texts(hist);
      for (std::size_t q = 0; q < texts.size(); ++q) {
        out += quantile_prefix;
        out += w;
        out += kQuantileLabels[q];
        out += texts[q];
        out += '\n';
      }
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace dohperf::report
