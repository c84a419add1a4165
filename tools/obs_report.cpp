// Campaign health report: joins the sim-time metric series, the
// anomaly flight-recorder dumps, and the fault-plan occupancy windows
// into one self-contained HTML page.
//
//   obs_report <timeseries.csv> <anomalies_dir | -> <out.html>
//              [availability.csv | -] [slo_alerts.csv | -]
//              [attribution_a.csv attribution_b.csv]
//
// The timeseries CSV is report::timeseries_csv output. The anomalies
// directory is report::write_anomaly_dumps output (anomalies.csv plus
// one Perfetto JSON per retained flow); pass "-" to render a report
// with no anomaly section. The page embeds an inline-SVG chart of
// per-provider resolution latency (p50 solid, p99 dashed) with
// fault-episode windows shaded behind the curves, followed by the
// anomaly table with a per-phase breakdown read from each dump.
//
// When an availability CSV (report::availability_csv output) is
// supplied, the page adds a per-(provider, country) availability heat
// table and a burn-rate timeline over campaign time, with
// outage-occupied windows shaded and — when the alerts CSV
// (report::slo_alerts_csv output) is supplied too — burn-rate alert
// events marked on the timeline. If any input carries a
// `# dohperf-spec` provenance stamp, the page title cites the spec
// hash so the report is traceable to the scenario that produced it.
//
// When a pair of attribution CSVs (report::attribution_csv output, e.g.
// a cold and a warm run) is supplied, the page adds a phase-attribution
// waterfall section: the per-phase A-vs-B delta chart whose bars sum
// exactly to the end-to-end delta. Pass "-" for the availability /
// alerts slots to supply attribution CSVs without an SLO section.
//
// Every CSV is read through report::CsvReader, so malformed input — a
// missing or duplicate column, a short row, a cell the number rule
// rejects, a dump trace_load rejects — exits 1 with a one-line diagnostic
// naming the file (and the row and column where they apply); nothing
// partial is written.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/trace_export.h"
#include "obs/trace_load.h"
#include "report/attribution.h"
#include "report/csv.h"
#include "report/format.h"

namespace {

using dohperf::report::CsvReader;
using enum dohperf::report::CsvType;

struct LatencyPoint {
  double window_start_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct FaultWindow {
  std::string metric;
  double start_ms = 0.0;
};

/// One report::availability_csv row; `has_window` distinguishes the
/// per-window rows from the whole-campaign roll-up (empty window cell).
struct AvailabilityRow {
  std::string provider;
  std::string country;
  bool has_window = false;
  double window_start_ms = 0.0;
  double objective = 0.0;
  double total = 0.0;
  double errors = 0.0;
  double outage = 0.0;  ///< provider_outage + blackout outcome counts.
  double availability = 1.0;
};

struct AlertMark {
  std::string provider;
  std::string severity;
  double window_start_ms = 0.0;
};

struct AnomalyRow {
  std::string slot;
  std::string session;
  std::string flow;
  std::string reasons;
  std::string duration_ms;
  std::string phases;  // "tunnel 12.3ms, handshake 4.5ms, ..."
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "obs_report: %s\n", message.c_str());
  std::exit(1);
}

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string format_ms(double ms) {
  return std::string(dohperf::report::NumText::g6(ms));
}

/// The window width of a set of window starts: the smallest gap between
/// two of them, or `fallback` when there are fewer than two.
double smallest_gap(const std::set<double>& starts, double fallback) {
  if (starts.size() < 2) return fallback;
  double gap = 1e300;
  for (auto it = std::next(starts.begin()); it != starts.end(); ++it) {
    gap = std::min(gap, *it - *std::prev(it));
  }
  return gap;
}

/// Heat-table cell fill: green at/above the objective, shading to red
/// as the error budget burns (linear in budget consumed, clamped).
std::string heat_color(double availability, double objective) {
  const double budget = std::max(1e-12, 1.0 - objective);
  const double deficit =
      std::clamp((objective - availability) / budget, 0.0, 1.0);
  const auto mix = [&](int from, int to) {
    return static_cast<int>(from + deficit * (to - from));
  };
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%02x%02x%02x", mix(0xd4, 0xf5),
                mix(0xed, 0xb7), mix(0xda, 0xb1));
  return buf;
}

/// Per-phase breakdown of one anomaly dump: the direct non-hop children
/// of the root flow span, in start order.
std::string phase_breakdown(const std::string& path) {
  const dohperf::obs::TraceLoadResult loaded =
      dohperf::obs::load_trace_file(path);
  if (!loaded.ok()) die(loaded.error);

  const auto root = std::find_if(
      loaded.spans.begin(), loaded.spans.end(), [](const auto& span) {
        return span.parent == dohperf::obs::kNoSpan && !span.hop;
      });
  if (root == loaded.spans.end()) return "(no flow span)";

  const auto phases = dohperf::obs::flow_phases(loaded.spans, *root);
  if (phases.empty()) return "(no phases)";

  std::string out;
  for (const auto* phase : phases) {
    if (!out.empty()) out += ", ";
    out += phase->name + " " + format_ms(phase->duration_ms()) + "ms";
  }
  return out;
}

// Geometry of both SVG charts.
constexpr double kWidth = 900.0, kHeight = 300.0;
constexpr double kLeft = 60.0, kRight = 880.0;
constexpr double kTop = 20.0, kBottom = 270.0;

/// The opening tag of a chart.
std::string svg_open() {
  return "<svg viewBox=\"0 0 " + format_ms(kWidth) + " " +
         format_ms(kHeight) + "\" xmlns=\"http://www.w3.org/2000/svg\">\n";
}

/// A chart's frame: both axes, then `guides`, then `y_label` at the top of
/// the y axis, "0" at its foot and `x_label` at the end of the x axis.
std::string svg_axes(const std::string& guides, const std::string& y_label,
                     const std::string& x_label) {
  const auto label = [](double x, double y, const std::string& text) {
    return "<text x=\"" + format_ms(x) + "\" y=\"" + format_ms(y) +
           "\" text-anchor=\"end\" font-size=\"10\">" + text + "</text>\n";
  };
  return "<line x1=\"" + format_ms(kLeft) + "\" y1=\"" + format_ms(kTop) +
         "\" x2=\"" + format_ms(kLeft) + "\" y2=\"" + format_ms(kBottom) +
         "\" stroke=\"#333\"/>\n<line x1=\"" + format_ms(kLeft) +
         "\" y1=\"" + format_ms(kBottom) + "\" x2=\"" + format_ms(kRight) +
         "\" y2=\"" + format_ms(kBottom) + "\" stroke=\"#333\"/>\n" + guides +
         label(kLeft - 6, kTop + 4, y_label) + label(kLeft - 6, kBottom, "0") +
         label(kRight, kBottom + 14, x_label);
}

/// The legend line under a chart, then its closing tag.
std::string svg_close(const std::string& legend) {
  return "<text y=\"" + format_ms(kHeight - 6) + "\" font-size=\"11\">" +
         legend + "</text>\n</svg>\n";
}

std::string svg_polyline(const std::vector<std::pair<double, double>>& pts,
                         const std::string& color, bool dashed) {
  std::string out = "<polyline fill=\"none\" stroke=\"" + color +
                    "\" stroke-width=\"1.5\"";
  if (dashed) out += " stroke-dasharray=\"5,3\"";
  out += " points=\"";
  for (const auto& [x, y] : pts) {
    out += format_ms(x) + "," + format_ms(y) + " ";
  }
  out += "\"/>\n";
  return out;
}

/// Renders the page; every CsvReader defect throws out of here.
int run(int argc, char** argv) {
  if (argc < 4 || argc == 7 || argc > 8) {
    std::fprintf(stderr,
                 "usage: obs_report <timeseries.csv> <anomalies_dir | -> "
                 "<out.html> [availability.csv | -] [slo_alerts.csv | -] "
                 "[attribution_a.csv attribution_b.csv]\n");
    return 1;
  }
  const auto optional_arg = [&](int i) -> std::string {
    if (argc <= i) return "";
    return std::string(argv[i]) == "-" ? "" : argv[i];
  };
  const std::string series_path = argv[1];
  const std::string anomalies_dir = argv[2];
  const std::string out_path = argv[3];
  const std::string availability_path = optional_arg(4);
  const std::string alerts_path = optional_arg(5);
  const std::string attribution_a_path = argc > 7 ? argv[6] : "";
  const std::string attribution_b_path = argc > 7 ? argv[7] : "";

  // --- Load the metric series CSV. -------------------------------------
  // Latency series per provider (country=="" aggregate rows), plus the
  // set of windows each fault class occupies. Window width is inferred
  // from the smallest gap between distinct window starts.
  std::string spec_hash;
  std::map<std::string, std::map<std::string, std::vector<LatencyPoint>>>
      by_metric;  // metric -> provider -> points
  std::vector<FaultWindow> faults;
  std::set<double> window_starts;
  {
    enum { kMetric, kProvider, kCountry, kWindow, kCount, kP50, kP90, kP99 };
    CsvReader series = CsvReader::open(
        series_path, {{"metric"}, {"provider"}, {"country"},
                      {"window_start_ms", kDouble}, {"count", kUint64},
                      {"p50_ms", kDouble, true}, {"p90_ms", kDouble, true},
                      {"p99_ms", kDouble, true}});
    // The provenance stamp carries the spec hash; cite it in the title so
    // the report is traceable to the scenario that produced it.
    for (const std::string& comment : series.comments()) {
      const std::size_t pos = comment.find("hash=");
      if (pos == std::string::npos) continue;
      spec_hash = comment.substr(pos + 5, comment.find(' ', pos) - (pos + 5));
      break;
    }
    while (series.next()) {
      const std::string metric(series.text(kMetric));
      const double start = series.number<double>(kWindow);
      window_starts.insert(start);
      if (metric.starts_with("fault_")) {
        if (series.number<std::uint64_t>(kCount) > 0) {
          faults.push_back({metric, start});
        }
        continue;
      }
      if (series.text(kP50).empty()) continue;  // counter row
      if (!series.text(kCountry).empty()) continue;  // per-country detail
      by_metric[metric][std::string(series.text(kProvider))].push_back(
          {start, series.number<double>(kP50), series.number<double>(kP99)});
    }
  }
  const double window_ms = smallest_gap(window_starts, 250.0);

  // The chart plots DoH resolution latency; Do53 rides along when the
  // series has it. Providers chart in map order (deterministic).
  std::map<std::string, std::vector<LatencyPoint>> chart;
  for (const char* metric : {"doh_ms", "do53_ms"}) {
    const auto it = by_metric.find(metric);
    if (it == by_metric.end()) continue;
    for (auto& [provider, points] : it->second) {
      auto& dst = chart[provider.empty() ? std::string(metric) : provider];
      dst.insert(dst.end(), points.begin(), points.end());
    }
  }
  for (auto& [provider, points] : chart) {
    std::sort(points.begin(), points.end(),
              [](const LatencyPoint& a, const LatencyPoint& b) {
                return a.window_start_ms < b.window_start_ms;
              });
  }

  // --- Load the anomaly index + per-dump phase breakdowns. -------------
  std::vector<AnomalyRow> anomalies;
  if (anomalies_dir != "-") {
    const std::filesystem::path base(anomalies_dir);
    enum { kSlot, kFlowIndex, kSession, kFlow, kReasons, kDuration, kSpans,
           kTrace };
    CsvReader index = CsvReader::open(
        (base / "anomalies.csv").string(),
        {{"slot", kUint64}, {"flow_index", kUint64}, {"session"}, {"flow"},
         {"reasons"}, {"duration_ms", kDouble}, {"spans", kUint64},
         {"trace_file"}});
    while (index.next()) {
      const auto cell = [&](std::size_t column) {
        return std::string(index.text(column));
      };
      anomalies.push_back(
          {cell(kSlot), cell(kSession), cell(kFlow), cell(kReasons),
           cell(kDuration), phase_breakdown((base / cell(kTrace)).string())});
    }
  }

  // --- Load the SLO availability table + burn-rate alerts. -------------
  std::vector<AvailabilityRow> avail;
  if (!availability_path.empty()) {
    enum { kProvider, kCountry, kWindow, kObjective, kTotal, kOk, kFallbackOk,
           kBrownout, kTimeout, kFallbackFailed, kOutage, kBlackout,
           kUnreachable, kSlow, kAvailability };
    CsvReader t = CsvReader::open(
        availability_path,
        {{"provider"}, {"country"}, {"window_start_ms", kUint64, true},
         {"objective", kDouble}, {"total", kUint64}, {"ok", kUint64},
         {"fallback_ok", kUint64}, {"brownout_degraded", kUint64},
         {"timeout_giveup", kUint64}, {"fallback_failed", kUint64},
         {"provider_outage", kUint64}, {"blackout", kUint64},
         {"unreachable", kUint64}, {"slow", kUint64},
         {"availability", kDouble}});
    while (t.next()) {
      const auto count = [&](std::size_t column) {
        return static_cast<double>(t.number<std::uint64_t>(column));
      };
      AvailabilityRow a;
      a.provider = t.text(kProvider);
      a.country = t.text(kCountry);
      a.has_window = !t.text(kWindow).empty();
      if (a.has_window) a.window_start_ms = count(kWindow);
      a.objective = t.number<double>(kObjective);
      a.total = count(kTotal);
      a.errors = a.total - count(kOk) - count(kFallbackOk) - count(kBrownout);
      a.outage = count(kOutage) + count(kBlackout);
      a.availability = t.number<double>(kAvailability);
      avail.push_back(a);
    }
  }

  std::vector<AlertMark> alert_marks;
  if (!alerts_path.empty()) {
    CsvReader t = CsvReader::open(
        alerts_path, {{"provider"}, {"severity"},
                      {"window_start_ms", kUint64}, {"burn_short", kDouble},
                      {"burn_long", kDouble}});
    while (t.next()) {
      alert_marks.push_back(
          {std::string(t.text(0)), std::string(t.text(1)),
           static_cast<double>(t.number<std::uint64_t>(2))});
    }
  }

  // --- Render the page. ------------------------------------------------
  double x_min = 0.0, x_max = 1.0, y_max = 1.0;
  if (!window_starts.empty()) {
    x_min = *window_starts.begin();
    x_max = *window_starts.rbegin() + window_ms;
  }
  for (const auto& [provider, points] : chart) {
    for (const LatencyPoint& p : points) y_max = std::max(y_max, p.p99_ms);
  }
  const auto sx = [&](double ms) {
    return kLeft + (ms - x_min) / (x_max - x_min) * (kRight - kLeft);
  };
  const auto sy = [&](double ms) {
    return kBottom - ms / y_max * (kBottom - kTop);
  };

  std::string svg = svg_open();
  // Fault-window shading first, behind the curves.
  const std::map<std::string, const char*> fault_fill = {
      {"fault_loss_spike", "#e8c468"},
      {"fault_blackout", "#d46a6a"},
      {"fault_brownout", "#b08ed9"},
      {"fault_provider_outage", "#7aa6c2"},
  };
  for (const FaultWindow& fault : faults) {
    const auto it = fault_fill.find(fault.metric);
    const char* fill = it != fault_fill.end() ? it->second : "#cccccc";
    svg += "<rect x=\"" + format_ms(sx(fault.start_ms)) + "\" y=\"" +
           format_ms(kTop) + "\" width=\"" +
           format_ms(sx(fault.start_ms + window_ms) - sx(fault.start_ms)) +
           "\" height=\"" + format_ms(kBottom - kTop) + "\" fill=\"" + fill +
           "\" fill-opacity=\"0.35\"><title>" + html_escape(fault.metric) +
           " @ " + format_ms(fault.start_ms) + "ms</title></rect>\n";
  }
  svg += svg_axes("", format_ms(y_max) + "ms",
                  format_ms(x_max) + "ms (sim time)");

  const std::vector<std::string> palette = {"#1f77b4", "#d62728", "#2ca02c",
                                            "#ff7f0e", "#9467bd", "#8c564b"};
  std::string legend;
  std::size_t color_index = 0;
  double legend_x = kLeft;
  for (const auto& [provider, points] : chart) {
    const std::string& color = palette[color_index++ % palette.size()];
    std::vector<std::pair<double, double>> p50, p99;
    for (const LatencyPoint& p : points) {
      // Anchor each point at its window midpoint.
      const double x = sx(p.window_start_ms + window_ms / 2.0);
      p50.emplace_back(x, sy(p.p50_ms));
      p99.emplace_back(x, sy(std::min(p.p99_ms, y_max)));
    }
    svg += svg_polyline(p50, color, /*dashed=*/false);
    svg += svg_polyline(p99, color, /*dashed=*/true);
    legend += "<tspan x=\"" + format_ms(legend_x) + "\" fill=\"" + color +
              "\">" + html_escape(provider) + "</tspan>";
    legend_x += 140.0;
  }
  svg += svg_close(legend);

  std::string title = "dohperf campaign health report";
  if (!spec_hash.empty()) title += " [spec " + spec_hash + "]";

  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>" + html_escape(title) + "</title>\n"
      "<style>\n"
      "body { font-family: sans-serif; margin: 2em; max-width: 960px; }\n"
      "table { border-collapse: collapse; font-size: 13px; }\n"
      "th, td { border: 1px solid #bbb; padding: 4px 8px; "
      "text-align: left; }\n"
      "th { background: #eee; }\n"
      ".note { color: #555; font-size: 13px; }\n"
      "</style>\n</head>\n<body>\n"
      "<h1>Campaign health report</h1>\n"
      "<h2>Per-provider resolution latency</h2>\n"
      "<p class=\"note\">Solid lines: p50. Dashed lines: p99. Shaded "
      "bands: fault-plan episode windows (loss spike, blackout, "
      "brownout, provider outage). Window width " +
      format_ms(window_ms) + "ms, source " + html_escape(series_path) +
      ".</p>\n" + svg;

  // --- Availability heat table + burn-rate timeline. -------------------
  if (!avail.empty()) {
    // Heat table from the whole-campaign roll-up rows (empty window
    // cell); the empty country is the provider aggregate.
    std::map<std::string, std::map<std::string, const AvailabilityRow*>>
        heat;
    std::set<std::string> countries;
    for (const AvailabilityRow& a : avail) {
      if (a.has_window) continue;
      heat[a.provider][a.country] = &a;
      countries.insert(a.country);
    }
    const double objective = avail.front().objective;
    html += "<h2>Availability</h2>\n<table>\n<tr><th>provider</th>";
    for (const std::string& country : countries) {
      html += "<th>" +
              html_escape(country.empty() ? std::string("(all)") : country) +
              "</th>";
    }
    html += "</tr>\n";
    for (const auto& [provider, by_country] : heat) {
      html += "<tr><td>" + html_escape(provider) + "</td>";
      for (const std::string& country : countries) {
        const auto it = by_country.find(country);
        if (it == by_country.end()) {
          html += "<td></td>";
          continue;
        }
        const AvailabilityRow& a = *it->second;
        html += "<td style=\"background:" +
                heat_color(a.availability, a.objective) + "\">" +
                format_ms(a.availability * 100.0) + "% (" +
                format_ms(a.total) + ")</td>";
      }
      html += "</tr>\n";
    }
    html += "</table>\n<p class=\"note\">Whole-campaign availability per "
            "(provider, country); (all) is the provider aggregate. Cells "
            "shade toward red as the error budget against the " +
            format_ms(objective * 100.0) +
            "% objective burns; session counts in parentheses.</p>\n";

    // Burn-rate timeline over campaign time from the per-window
    // provider-aggregate rows; outage-occupied windows shade behind the
    // curves and alert events mark on top.
    std::map<std::string, std::vector<std::pair<double, double>>> burn;
    std::set<double> burn_windows;
    std::set<double> outage_windows;
    double burn_max = 1.0;
    for (const AvailabilityRow& a : avail) {
      if (!a.has_window || !a.country.empty()) continue;
      const double budget = std::max(1e-12, 1.0 - a.objective);
      const double rate = a.total > 0 ? a.errors / a.total : 0.0;
      burn[a.provider].emplace_back(a.window_start_ms, rate / budget);
      burn_windows.insert(a.window_start_ms);
      burn_max = std::max(burn_max, rate / budget);
      if (a.outage > 0) outage_windows.insert(a.window_start_ms);
    }
    const double slo_window_ms = smallest_gap(burn_windows, 60000.0);
    double bx_min = 0.0, bx_max = slo_window_ms;
    if (!burn_windows.empty()) {
      bx_min = *burn_windows.begin();
      bx_max = *burn_windows.rbegin() + slo_window_ms;
    }
    const auto bx = [&](double ms) {
      return kLeft + (ms - bx_min) / (bx_max - bx_min) * (kRight - kLeft);
    };
    const auto by = [&](double value) {
      return kBottom - value / burn_max * (kBottom - kTop);
    };
    std::string burn_svg = svg_open();
    for (const double start : outage_windows) {
      burn_svg += "<rect x=\"" + format_ms(bx(start)) + "\" y=\"" +
                  format_ms(kTop) + "\" width=\"" +
                  format_ms(bx(start + slo_window_ms) - bx(start)) +
                  "\" height=\"" + format_ms(kBottom - kTop) +
                  "\" fill=\"#d46a6a\" fill-opacity=\"0.25\"><title>"
                  "outage/blackout window @ " +
                  format_ms(start) + "ms</title></rect>\n";
    }
    // Budget-neutral reference: burn rate 1 spends exactly the budget.
    burn_svg += svg_axes("<line x1=\"" + format_ms(kLeft) + "\" y1=\"" +
                             format_ms(by(1.0)) + "\" x2=\"" +
                             format_ms(kRight) + "\" y2=\"" +
                             format_ms(by(1.0)) +
                             "\" stroke=\"#999\" stroke-dasharray=\"2,4\"/>\n",
                         format_ms(burn_max) + "x",
                         format_ms(bx_max) + "ms (campaign time)");
    std::string burn_legend;
    std::size_t burn_color = 0;
    double burn_legend_x = kLeft;
    for (const auto& [provider, points] : burn) {
      const std::string& color = palette[burn_color++ % palette.size()];
      std::vector<std::pair<double, double>> line;
      for (const auto& [start, value] : points) {
        line.emplace_back(bx(start + slo_window_ms / 2.0), by(value));
      }
      burn_svg += svg_polyline(line, color, /*dashed=*/false);
      burn_legend += "<tspan x=\"" + format_ms(burn_legend_x) +
                     "\" fill=\"" + color + "\">" + html_escape(provider) +
                     "</tspan>";
      burn_legend_x += 140.0;
    }
    for (const AlertMark& mark : alert_marks) {
      const bool page = mark.severity == "page";
      const double x = bx(mark.window_start_ms + slo_window_ms / 2.0);
      burn_svg += "<line x1=\"" + format_ms(x) + "\" y1=\"" +
                  format_ms(kTop) + "\" x2=\"" + format_ms(x) +
                  "\" y2=\"" + format_ms(kBottom) + "\" stroke=\"" +
                  (page ? "#c0392b" : "#e67e22") +
                  "\" stroke-width=\"1.5\" stroke-dasharray=\"4,2\">"
                  "<title>" +
                  html_escape(mark.severity) + " alert: " +
                  html_escape(mark.provider) + " @ " +
                  format_ms(mark.window_start_ms) + "ms</title></line>\n";
    }
    burn_svg += svg_close(burn_legend);
    html += "<h2>Error-budget burn rate</h2>\n"
            "<p class=\"note\">Per-provider error-rate / budget ratio per "
            "SLO window (1x dashed line = budget-neutral). Red shading: "
            "windows with outage or blackout outcomes. Vertical markers: "
            "burn-rate alerts (red = page, orange = ticket)" +
            std::string(alerts_path.empty()
                            ? "; no alerts CSV supplied"
                            : "") +
            ".</p>\n" + burn_svg;
  }

  // --- Phase-attribution waterfall (optional CSV pair). ----------------
  if (!attribution_a_path.empty()) {
    const auto load_attribution = [](const std::string& path) {
      const std::optional<std::string> text =
          dohperf::obs::read_text_file(path);
      if (!text) die(path + ": cannot read file");
      std::string error;
      const std::optional<dohperf::report::AttributionTable> table =
          dohperf::report::load_attribution_csv(*text, path, &error);
      if (!table) die(error);
      return *table;
    };
    const dohperf::report::AttributionCell cell_a =
        dohperf::report::aggregate(load_attribution(attribution_a_path));
    const dohperf::report::AttributionCell cell_b =
        dohperf::report::aggregate(load_attribution(attribution_b_path));
    if (cell_a.flows == 0) die(attribution_a_path + ": no flows");
    if (cell_b.flows == 0) die(attribution_b_path + ": no flows");
    const dohperf::report::Waterfall waterfall =
        dohperf::report::make_waterfall(cell_a, cell_b);
    html += "<h2>Latency attribution waterfall</h2>\n";
    html += dohperf::report::waterfall_svg(waterfall, attribution_a_path,
                                           attribution_b_path);
    html += "<p class=\"note\">Per-phase mean latency delta, " +
            html_escape(attribution_b_path) + " minus " +
            html_escape(attribution_a_path) +
            " (green = faster in B, red = slower). The phase bars sum "
            "exactly to the end-to-end delta (" +
            format_ms(waterfall.delta_total_ms) + "ms; exactness " +
            (waterfall.exact ? "verified" : "<b>VIOLATED</b>") +
            " in integer arithmetic).</p>\n";
  }

  html += "<h2>Anomalous flows</h2>\n";
  if (anomalies_dir == "-") {
    html += "<p class=\"note\">No anomaly directory supplied.</p>\n";
  } else if (anomalies.empty()) {
    html += "<p class=\"note\">Flight recorder retained no anomalous "
            "flows.</p>\n";
  } else {
    html +=
        "<table>\n<tr><th>slot</th><th>session</th><th>flow</th>"
        "<th>reasons</th><th>duration</th><th>phase breakdown</th>"
        "</tr>\n";
    for (const AnomalyRow& row : anomalies) {
      html += "<tr><td>" + html_escape(row.slot) + "</td><td>" +
              html_escape(row.session) + "</td><td>" +
              html_escape(row.flow) + "</td><td>" +
              html_escape(row.reasons) + "</td><td>" +
              html_escape(row.duration_ms) + "ms</td><td>" +
              html_escape(row.phases) + "</td></tr>\n";
    }
    html += "</table>\n";
    html += "<p class=\"note\">" + std::to_string(anomalies.size()) +
            " flow(s) retained from " + html_escape(anomalies_dir) +
            "; each row has a Perfetto dump alongside anomalies.csv.</p>\n";
  }
  html += "</body>\n</html>\n";

  dohperf::obs::write_text_file(out_path, html);
  std::printf("obs_report: wrote %s (%zu provider series, %zu fault "
              "windows, %zu availability rows, %zu alerts, %zu "
              "anomalies)\n",
              out_path.c_str(), chart.size(), faults.size(), avail.size(),
              alert_marks.size(), anomalies.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
