// Table 2 — Ground-truth experiments for Do53, plus the Section 4.4
// BrightData-vs-RIPE-Atlas consistency check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "measure/groundtruth.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner(
      "Table 2: ground-truth validation of the Do53 header readout");

  measure::GroundTruthLab lab(benchsupport::Env::instance().world());

  struct PaperRow {
    const char* iso2;
    double method, truth;
  };
  const PaperRow paper[] = {
      {"IE", 102, 102}, {"BR", 139, 138}, {"SE", 131, 129}, {"IT", 204, 203},
  };

  report::Table table("Ground-truth Do53 (medians, ms)");
  table.header(
      {"Country", "header est", "direct truth", "|err|", "paper |err|"});
  double worst = 0;
  for (const PaperRow& row : paper) {
    const auto v = lab.validate_do53(row.iso2, /*reps=*/10);
    worst = std::max(worst, std::abs(v.error_ms()));
    table.row({row.iso2, report::fmt(v.estimated_ms, 0),
               report::fmt(v.truth_ms, 0),
               report::fmt(std::abs(v.error_ms()), 1),
               report::fmt(std::abs(row.method - row.truth), 0)});
  }
  table.caption(
      "Do53 is not measurable via BrightData in the USA and India (Super "
      "Proxy countries), exactly as in the paper.");
  std::fputs(table.render().c_str(), stdout);

  // Section 4.4: overlap countries measured on both networks.
  const char* overlap[] = {"BE", "ZA", "SE", "IT", "IR", "GR", "CH",
                           "ES", "NO", "DK", "NZ", "AT", "BG"};
  std::vector<double> diffs;
  report::Table cmp("BrightData vs RIPE Atlas Do53 (Section 4.4)");
  cmp.header({"Country", "BrightData med", "Atlas med", "diff"});
  for (const char* iso2 : overlap) {
    const auto c = lab.compare_networks(iso2, /*reps=*/100);
    if (std::isnan(c.brightdata_median_ms) || std::isnan(c.atlas_median_ms)) {
      continue;
    }
    diffs.push_back(std::abs(c.difference_ms()));
    cmp.row({iso2, report::fmt(c.brightdata_median_ms, 0),
             report::fmt(c.atlas_median_ms, 0),
             report::fmt(c.difference_ms(), 1)});
  }
  const double mean_diff = stats::mean(diffs);
  cmp.caption("Paper: average |difference| 7.6 ms (sd 5.2 ms) across 10 "
              "overlap countries.");
  std::fputs(cmp.render().c_str(), stdout);
  std::printf("average |difference|: %.1f ms (sd %.1f ms)\n", mean_diff,
              stats::stdev(diffs));
  return worst < 30.0 ? 0 : 1;
}

}  // namespace

int main() {
  return benchsupport::run_main("table2_groundtruth_do53", bench);
}
