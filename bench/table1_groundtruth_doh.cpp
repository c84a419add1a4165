// Table 1 — Ground-truth experiments for DoH and DoHR.
//
// Controlled EC2-like exit nodes in six countries; 10 repetitions per
// method; median estimated (Equations 7/8) vs directly-measured query
// times. Paper: differences within ~10 ms everywhere.
#include <cstdio>

#include "measure/groundtruth.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner(
      "Table 1: ground-truth validation of the DoH/DoHR estimators");

  struct PaperRow {
    const char* iso2;
    double doh_method, dohr_method, doh_truth, dohr_truth;
  };
  // Paper Table 1 values (ms).
  const PaperRow paper[] = {
      {"IE", 116, 94, 109, 85},  {"BR", 193, 182, 190, 176},
      {"SE", 129, 122, 131, 126}, {"IT", 246, 236, 245, 238},
      {"IN", 254, 251, 260, 257}, {"US", 53, 25, 52, 23},
  };

  measure::GroundTruthLab lab(benchsupport::Env::instance().world());

  report::Table table("Ground-truth DoH / DoHR (medians, ms)");
  table.header({"Country", "DoH est", "DoH truth", "|err|", "DoHR est",
                "DoHR truth", "|err|", "paper DoH err", "paper DoHR err"});
  double worst_doh = 0, worst_dohr = 0;
  for (const PaperRow& row : paper) {
    const auto v = lab.validate_doh(row.iso2, /*provider_index=*/0,
                                    /*reps=*/10);
    worst_doh = std::max(worst_doh, std::abs(v.tdoh_error_ms()));
    worst_dohr = std::max(worst_dohr, std::abs(v.tdohr_error_ms()));
    table.row({row.iso2, report::fmt(v.estimated_tdoh_ms, 0),
               report::fmt(v.truth_tdoh_ms, 0),
               report::fmt(std::abs(v.tdoh_error_ms()), 1),
               report::fmt(v.estimated_tdohr_ms, 0),
               report::fmt(v.truth_tdohr_ms, 0),
               report::fmt(std::abs(v.tdohr_error_ms()), 1),
               report::fmt(std::abs(row.doh_method - row.doh_truth), 0),
               report::fmt(std::abs(row.dohr_method - row.dohr_truth), 0)});
  }
  table.caption(
      "Estimator vs direct measurement at controlled exit nodes "
      "(Cloudflare, 10 reps). Paper errors: <= 7 ms DoH, <= 9 ms DoHR. "
      "Absolute times differ from the paper's EC2 nodes; the claim under "
      "test is estimator fidelity.");
  std::fputs(table.render().c_str(), stdout);
  std::printf("worst estimator error: DoH %.1f ms, DoHR %.1f ms\n",
              worst_doh, worst_dohr);
  return worst_doh < 30.0 && worst_dohr < 30.0 ? 0 : 1;
}

}  // namespace

int main() {
  return benchsupport::run_main("table1_groundtruth_doh", bench);
}
