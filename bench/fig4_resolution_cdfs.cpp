// Figure 4 — Resolution-time CDFs per resolver: DoH1, DoHR, and Do53.
//
// Paper highlight: Cloudflare's DoHR curve closely tracks the Do53 curve.
// Emits the CDF series as CSV (scenario::fig4_csv) next to the summary
// table.
#include <cstdio>

#include "anycast/catalog.h"
#include "report/csv.h"
#include "stats/cdf.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Figure 4: resolution-time CDFs by resolver");
  const auto& data = benchsupport::Env::instance().dataset();

  const stats::EmpiricalCdf do53(data.do53_values());

  report::Table table("Resolution-time percentiles (ms)");
  table.header({"Series", "p10", "p25", "p50", "p75", "p90"});
  auto add_series = [&table](const std::string& name,
                             const stats::EmpiricalCdf& cdf) {
    table.row({name, report::fmt(cdf.value_at(0.10), 0),
               report::fmt(cdf.value_at(0.25), 0),
               report::fmt(cdf.value_at(0.50), 0),
               report::fmt(cdf.value_at(0.75), 0),
               report::fmt(cdf.value_at(0.90), 0)});
  };
  add_series("Do53 (default)", do53);

  double cf_dohr_gap = 0.0;
  for (const char* provider : anycast::kProviderNames) {
    const stats::EmpiricalCdf doh1(data.tdoh_values(provider));
    const stats::EmpiricalCdf dohr(data.tdohr_values(provider));
    add_series(std::string(provider) + " DoH1", doh1);
    add_series(std::string(provider) + " DoHR", dohr);
    if (std::string(provider) == "Cloudflare") {
      cf_dohr_gap = dohr.value_at(0.5) - do53.value_at(0.5);
    }
  }
  table.caption(
      "Paper medians: Do53 250 (Cloudflare clients), DoH1 338/429/467/447, "
      "DoHR 257/315/324/298 for Cloudflare/Google/NextDNS/Quad9.");
  std::fputs(table.render().c_str(), stdout);

  const std::string csv_path = benchsupport::out_path("fig4_cdfs.csv");
  const report::CsvWriter csv = scenario::fig4_csv(data);
  csv.write_file(csv_path);
  std::printf("CDF series written to %s (%zu rows)\n", csv_path.c_str(),
              csv.row_count());
  std::printf(
      "Cloudflare DoHR median - Do53 median: %.0f ms (paper: ~+7 ms; "
      "\"DoHR closely tracks Do53\")\n",
      cf_dohr_gap);
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig4_resolution_cdfs", bench);
}
