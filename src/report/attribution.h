// Attribution report surfaces: the per-(provider, country, transport)
// phase-decomposition CSV, its loader, and the differential waterfall
// that accounts a B-vs-A end-to-end latency delta phase by phase.
//
// Exactness contract: phase microseconds partition each flow's total by
// construction (obs/attribution.h), and the aggregation is integer-only,
// so for any two aggregates A and B the per-phase mean deltas sum to the
// end-to-end mean delta *as rationals* — verified here in 128-bit
// integer arithmetic over the common denominator flows_a * flows_b, not
// within a floating-point epsilon.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/attribution.h"
#include "report/csv.h"

namespace dohperf::report {

/// One loaded (or aggregated) attribution cell: exact integer counts.
struct AttributionCell {
  std::uint64_t flows = 0;
  std::uint64_t total_us = 0;
  std::array<std::uint64_t, obs::kPhaseCount> phase_us{};

  void merge(const AttributionCell& other);
  /// sum(phase_us) == total_us — the per-flow invariant survives
  /// integer aggregation.
  [[nodiscard]] bool consistent() const;
};

/// The (provider, country, transport) a loaded cell is filed under.
struct AttributionKey {
  std::string provider;
  std::string country;
  std::string transport;

  auto operator<=>(const AttributionKey&) const = default;
};

/// A parsed attribution artifact: cells keyed like the ledger, in the
/// byte-wise order of the key strings.
using AttributionTable = std::map<AttributionKey, AttributionCell>;

/// The attribution CSV ("dohperf-attribution" column contract):
///   provider,country,transport,phase,flows,us,p50_ms,p90_ms,p99_ms
/// Per (provider, country, transport) cell: one row per phase in
/// canonical order (zero phases included, so every cell is 12+1 rows)
/// and one "total" row. Phase quantiles are over the flows where the
/// phase occurred; the total row's are over all flows.
[[nodiscard]] CsvWriter attribution_csv(const obs::AttributionLedger& ledger);

/// Reads an attribution CSV through CsvReader (leading '#' provenance
/// lines set aside). Returns std::nullopt on a malformed document: a
/// missing or duplicate column, a cell the number rule rejects, an
/// unknown phase name, or a cell whose phase rows do not sum to its
/// total row. `file` names the document in the diagnostic, which is
/// stored in `*error` when one is given.
[[nodiscard]] std::optional<AttributionTable> load_attribution_csv(
    std::string_view text, const std::string& file = "attribution CSV",
    std::string* error = nullptr);

/// Sums the table's cells, optionally restricted to one transport
/// (empty matches all). Integer-only, so order never matters.
[[nodiscard]] AttributionCell aggregate(const AttributionTable& table,
                                        std::string_view transport = {});

/// One phase's contribution to the A->B latency delta (per-flow means).
struct WaterfallStep {
  obs::Phase phase = obs::Phase::kTransfer;
  double a_ms = 0.0;      ///< Mean per-flow phase time in A.
  double b_ms = 0.0;      ///< Mean per-flow phase time in B.
  double delta_ms = 0.0;  ///< b_ms - a_ms.
};

/// The differential waterfall between two aggregates.
struct Waterfall {
  AttributionCell a;
  AttributionCell b;
  std::array<WaterfallStep, obs::kPhaseCount> steps;
  double a_total_ms = 0.0;
  double b_total_ms = 0.0;
  double delta_total_ms = 0.0;
  /// The 128-bit rational identity
  ///   sum_p (phase_b[p]*flows_a - phase_a[p]*flows_b)
  ///     == total_b*flows_a - total_a*flows_b
  /// held exactly. True for any internally consistent pair of cells.
  bool exact = false;
};

/// Builds the waterfall; cells with zero flows contribute zero means.
[[nodiscard]] Waterfall make_waterfall(const AttributionCell& a,
                                       const AttributionCell& b);

/// Fixed-width per-phase delta table (for terminals and logs).
[[nodiscard]] std::string waterfall_text(const Waterfall& w,
                                         std::string_view label_a,
                                         std::string_view label_b);

/// Standalone inline-SVG waterfall chart: one bar per phase delta,
/// positive (slower in B) to the right, plus the end-to-end delta bar.
[[nodiscard]] std::string waterfall_svg(const Waterfall& w,
                                        std::string_view label_a,
                                        std::string_view label_b);

/// OpenMetrics gauge block (no "# EOF"; the caller owns framing):
/// dohperf_attribution_us_total{provider,country,transport,phase} plus
/// dohperf_attribution_flows_total per cell.
[[nodiscard]] std::string attribution_openmetrics_text(
    const obs::AttributionLedger& ledger);

}  // namespace dohperf::report
