#include "report/attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "report/format.h"

namespace dohperf::report {
namespace {

double mean_ms(std::uint64_t us, std::uint64_t flows) {
  return flows == 0 ? 0.0
                    : static_cast<double>(us) /
                          static_cast<double>(flows) / 1000.0;
}

}  // namespace

void AttributionCell::merge(const AttributionCell& other) {
  flows += other.flows;
  total_us += other.total_us;
  for (int p = 0; p < obs::kPhaseCount; ++p) phase_us[p] += other.phase_us[p];
}

bool AttributionCell::consistent() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t us : phase_us) sum += us;
  return sum == total_us;
}

CsvWriter attribution_csv(const obs::AttributionLedger& ledger) {
  CsvWriter csv({"provider", "country", "transport", "phase", "flows", "us",
                 "p50_ms", "p90_ms", "p99_ms"});
  const obs::AttributionLedger::Entries& entries = ledger.entries();
  for (const auto* track : entries.sorted()) {
    const auto [provider, country, transport] = entries.names(track->ids);
    const obs::AttributionEntry& entry = track->value;
    const NumText flows(entry.flows);
    const auto add = [&](std::string_view phase, std::uint64_t us,
                         const obs::LatencyHistogram& sketch) {
      const auto [p50, p90, p99] = quantile_texts(sketch);
      csv.add_row({provider, country, transport, phase, flows, NumText(us),
                   p50, p90, p99});
    };
    for (const obs::Phase phase : obs::kPhases) {
      const obs::PhaseAggregate& agg =
          entry.phases[static_cast<std::size_t>(phase)];
      add(obs::phase_name(phase), agg.us, agg.sketch);
    }
    add("total", entry.total_us, entry.total_sketch);
  }
  return csv;
}

std::optional<AttributionTable> load_attribution_csv(std::string_view text,
                                                     const std::string& file,
                                                     std::string* error) {
  using enum CsvType;
  enum { kProvider, kCountry, kTransport, kPhase, kFlows, kUs };
  try {
    CsvReader t(std::string(text), file,
                {{"provider"}, {"country"}, {"transport"}, {"phase"},
                 {"flows", kUint64}, {"us", kUint64}, {"p50_ms", kDouble},
                 {"p90_ms", kDouble}, {"p99_ms", kDouble}});
    AttributionTable table;
    std::set<AttributionKey> totals;  // cells with a "total" row
    while (t.next()) {
      AttributionKey key{std::string(t.text(kProvider)),
                              std::string(t.text(kCountry)),
                              std::string(t.text(kTransport))};
      AttributionCell& cell = table[key];
      cell.flows = t.number<std::uint64_t>(kFlows);
      const std::uint64_t us = t.number<std::uint64_t>(kUs);
      obs::Phase phase;
      if (t.text(kPhase) == "total") {
        cell.total_us = us;
        totals.insert(std::move(key));
      } else if (obs::parse_phase(t.text(kPhase), phase)) {
        cell.phase_us[static_cast<std::size_t>(phase)] = us;
      } else {
        t.fail(kPhase,
               "unknown phase \"" + std::string(t.text(kPhase)) + "\"");
      }
    }
    for (const auto& [key, cell] : table) {
      const char* defect = !totals.contains(key) ? "has no total row"
                           : !cell.consistent()
                               ? "has phase rows that do not sum to its total"
                               : nullptr;
      if (defect != nullptr) {
        throw std::runtime_error(file + ": cell " + key.provider + "/" +
                                 key.country + "/" + key.transport + " " +
                                 defect);
      }
    }
    return table;
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

AttributionCell aggregate(const AttributionTable& table,
                          std::string_view transport) {
  AttributionCell out;
  for (const auto& [key, cell] : table) {
    if (!transport.empty() && key.transport != transport) continue;
    out.merge(cell);
  }
  return out;
}

Waterfall make_waterfall(const AttributionCell& a, const AttributionCell& b) {
  Waterfall w;
  w.a = a;
  w.b = b;
  w.a_total_ms = mean_ms(a.total_us, a.flows);
  w.b_total_ms = mean_ms(b.total_us, b.flows);
  w.delta_total_ms = w.b_total_ms - w.a_total_ms;

  // Exactness over the common denominator flows_a * flows_b: the phase
  // numerators must sum to the end-to-end numerator with no remainder.
  using int128 = __int128;
  const auto na = static_cast<int128>(a.flows);
  const auto nb = static_cast<int128>(b.flows);
  int128 numer_sum = 0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    WaterfallStep& step = w.steps[static_cast<std::size_t>(p)];
    step.phase = obs::kPhases[static_cast<std::size_t>(p)];
    step.a_ms = mean_ms(a.phase_us[p], a.flows);
    step.b_ms = mean_ms(b.phase_us[p], b.flows);
    step.delta_ms = step.b_ms - step.a_ms;
    numer_sum += static_cast<int128>(b.phase_us[p]) * na -
                 static_cast<int128>(a.phase_us[p]) * nb;
  }
  const int128 total_numer = static_cast<int128>(b.total_us) * na -
                             static_cast<int128>(a.total_us) * nb;
  w.exact = numer_sum == total_numer;
  return w;
}

std::string waterfall_text(const Waterfall& w, std::string_view label_a,
                           std::string_view label_b) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %12.*s %12.*s %12s\n", "phase",
                static_cast<int>(label_a.size()), label_a.data(),
                static_cast<int>(label_b.size()), label_b.data(),
                "delta_ms");
  out += line;
  for (const WaterfallStep& step : w.steps) {
    if (step.a_ms == 0.0 && step.b_ms == 0.0) continue;
    std::snprintf(line, sizeof line, "%-18s %12.3f %12.3f %+12.3f\n",
                  std::string(obs::phase_name(step.phase)).c_str(),
                  step.a_ms, step.b_ms, step.delta_ms);
    out += line;
  }
  std::snprintf(line, sizeof line, "%-18s %12.3f %12.3f %+12.3f\n", "total",
                w.a_total_ms, w.b_total_ms, w.delta_total_ms);
  out += line;
  std::snprintf(line, sizeof line, "exact: %s\n", w.exact ? "yes" : "NO");
  out += line;
  return out;
}

std::string waterfall_svg(const Waterfall& w, std::string_view label_a,
                          std::string_view label_b) {
  // Bars for the phases that moved, plus the end-to-end delta at the
  // bottom. Scale: widest |delta| spans half the chart width.
  struct Bar {
    std::string name;
    double delta_ms = 0.0;
  };
  std::vector<Bar> bars;
  double max_abs = 0.0;
  for (const WaterfallStep& step : w.steps) {
    if (step.a_ms == 0.0 && step.b_ms == 0.0) continue;
    bars.push_back({std::string(obs::phase_name(step.phase)),
                    step.delta_ms});
    if (std::abs(step.delta_ms) > max_abs) max_abs = std::abs(step.delta_ms);
  }
  bars.push_back({"total", w.delta_total_ms});
  if (std::abs(w.delta_total_ms) > max_abs) {
    max_abs = std::abs(w.delta_total_ms);
  }
  if (max_abs == 0.0) max_abs = 1.0;

  constexpr int kWidth = 860;
  constexpr int kLeft = 170;
  constexpr int kRowH = 26;
  const int mid = kLeft + (kWidth - kLeft - 20) / 2;
  const double scale = static_cast<double>(kWidth - kLeft - 40) / 2.0 /
                       max_abs;
  const int height = 60 + static_cast<int>(bars.size()) * kRowH;

  std::string svg;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
                "height=\"%d\" font-family=\"sans-serif\" "
                "font-size=\"12\">\n",
                kWidth, height);
  svg += buf;
  std::snprintf(buf, sizeof buf,
                "<text x=\"%d\" y=\"18\">Latency delta waterfall: %.*s "
                "&#8594; %.*s (negative = faster)</text>\n",
                kLeft, static_cast<int>(label_a.size()), label_a.data(),
                static_cast<int>(label_b.size()), label_b.data());
  svg += buf;
  std::snprintf(buf, sizeof buf,
                "<line x1=\"%d\" y1=\"30\" x2=\"%d\" y2=\"%d\" "
                "stroke=\"#888\"/>\n",
                mid, mid, height - 10);
  svg += buf;
  int y = 40;
  for (const Bar& bar : bars) {
    const bool total = bar.name == "total";
    const double width_px = std::abs(bar.delta_ms) * scale;
    const int x = bar.delta_ms < 0
                      ? mid - static_cast<int>(width_px)
                      : mid;
    const char* color = total ? "#444" : bar.delta_ms < 0 ? "#2a7" : "#c44";
    std::snprintf(buf, sizeof buf,
                  "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
                  kLeft - 8, y + 14, bar.name.c_str());
    svg += buf;
    std::snprintf(buf, sizeof buf,
                  "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
                  "fill=\"%s\"/>\n",
                  x, y + 3, std::max(1, static_cast<int>(width_px)),
                  kRowH - 10, color);
    svg += buf;
    std::snprintf(buf, sizeof buf,
                  "<text x=\"%d\" y=\"%d\">%+.3f ms</text>\n",
                  (bar.delta_ms < 0 ? mid : mid + static_cast<int>(width_px)) +
                      6,
                  y + 14, bar.delta_ms);
    svg += buf;
    y += kRowH;
  }
  svg += "</svg>\n";
  return svg;
}

std::string attribution_openmetrics_text(
    const obs::AttributionLedger& ledger) {
  std::string out;
  if (ledger.entries().empty()) return out;
  // One pass renders both gauge blocks, so each cell's label set is built
  // once; the second block is appended after the first.
  std::string phases = "# TYPE dohperf_attribution_us_total gauge\n";
  out += "# TYPE dohperf_attribution_flows_total gauge\n";
  const obs::AttributionLedger::Entries& entries = ledger.entries();
  for (const auto* track : entries.sorted()) {
    const auto [provider, country, transport] = entries.names(track->ids);
    const obs::AttributionEntry& entry = track->value;
    std::string labels = "{provider=\"";
    append_label_value(labels, provider);
    labels += "\",country=\"";
    append_label_value(labels, country);
    labels += "\",transport=\"";
    append_label_value(labels, transport);
    out += "dohperf_attribution_flows_total";
    out += labels;
    out += "\"} ";
    out += NumText(entry.flows);
    out += '\n';
    for (const obs::Phase phase : obs::kPhases) {
      const obs::PhaseAggregate& agg =
          entry.phases[static_cast<std::size_t>(phase)];
      if (agg.us == 0) continue;
      phases += "dohperf_attribution_us_total";
      phases += labels;
      phases += "\",phase=\"";
      phases += obs::phase_name(phase);
      phases += "\"} ";
      phases += NumText(agg.us);
      phases += '\n';
    }
  }
  out += phases;
  return out;
}

}  // namespace dohperf::report
