#include "report/slo.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include "report/format.h"

namespace dohperf::report {
namespace {

/// `{provider="..",country=".."}` for one key.
std::string key_labels(std::string_view provider, std::string_view country) {
  std::string out = "{provider=\"";
  append_label_value(out, provider);
  out += "\",country=\"";
  append_label_value(out, country);
  out += "\"}";
  return out;
}

/// One availability row: the key, the window cell, the objective, the
/// cell's outcome counts and its availability.
void add_cell_row(CsvWriter& csv, const obs::LabelNames<2>& key,
                  std::string_view window_cell, std::string_view objective,
                  const obs::SloCell& cell) {
  static_assert(obs::kOutcomeCount == 8, "one column per Outcome below");
  const std::uint64_t total = cell.total();
  const auto& n = cell.outcomes;
  csv.add_row({key[0], key[1], window_cell, objective,
               NumText(total), NumText(n[0]), NumText(n[1]), NumText(n[2]),
               NumText(n[3]), NumText(n[4]), NumText(n[5]), NumText(n[6]),
               NumText(n[7]), NumText(cell.slow),
               NumText::g6(total == 0
                               ? 1.0
                               : static_cast<double>(cell.good()) /
                                     static_cast<double>(total))});
}

}  // namespace

CsvWriter availability_csv(const obs::SloTracker& tracker) {
  std::vector<std::string> columns = {"provider", "country",
                                      "window_start_ms", "objective",
                                      "total"};
  for (int i = 0; i < obs::kOutcomeCount; ++i) {
    columns.emplace_back(obs::to_string(static_cast<obs::Outcome>(i)));
  }
  columns.emplace_back("slow");
  columns.emplace_back("availability");
  CsvWriter csv(std::move(columns));

  const NumText objective =
      NumText::g6(tracker.config().availability_objective);
  const std::int64_t window_ms = tracker.window_ms();
  const obs::SloTracker::Cells& cells = tracker.cells();
  for (const auto* track : cells.sorted()) {
    const obs::LabelNames<2> key = cells.names(track->ids);
    obs::SloCell total;
    for (const auto& [window, cell] : track->value) {
      add_cell_row(csv, key, NumText(window * window_ms), objective, cell);
      total.merge(cell);
    }
    // Whole-campaign roll-up: empty window cell.
    add_cell_row(csv, key, {}, objective, total);
  }
  return csv;
}

CsvWriter slo_alerts_csv(std::span<const obs::SloAlert> alerts) {
  CsvWriter csv({"provider", "severity", "window_start_ms", "burn_short",
                 "burn_long"});
  for (const obs::SloAlert& alert : alerts) {
    csv.add_row({alert.provider, alert.severity,
                 NumText(alert.window_start_ms),
                 NumText::g6(alert.burn_short), NumText::g6(alert.burn_long)});
  }
  return csv;
}

std::string slo_openmetrics_text(const obs::SloTracker& tracker) {
  std::string out;
  const auto budgets = tracker.budgets();
  if (budgets.empty()) return out;
  // One pass renders both gauge blocks, so each key's label set is built
  // once; the second block is appended after the first.
  std::string consumed = "# TYPE dohperf_error_budget_consumed gauge\n";
  out += "# TYPE dohperf_availability gauge\n";
  for (const obs::SloBudget& budget : budgets) {
    const std::string labels = key_labels(budget.provider, budget.country);
    out += "dohperf_availability";
    out += labels;
    out += ' ';
    out += NumText::g6(budget.availability);
    out += '\n';
    consumed += "dohperf_error_budget_consumed";
    consumed += labels;
    consumed += ' ';
    consumed += NumText::g6(budget.error_budget_consumed);
    consumed += '\n';
  }
  out += consumed;
  return out;
}

}  // namespace dohperf::report
