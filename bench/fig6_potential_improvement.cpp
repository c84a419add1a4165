// Figure 6 — Potential improvement in distance to the DoH PoP: distance
// to the PoP actually used minus distance to the closest PoP.
#include <cstdio>

#include "report/csv.h"
#include "stats/cdf.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Figure 6: potential improvement to PoPs");
  const auto& data = benchsupport::Env::instance().dataset();

  struct PaperRow {
    const char* provider;
    double median_mi;
    double over_1000_fraction;  // -1 when the paper gives no number
  };
  const PaperRow paper[] = {{"Cloudflare", 46, 0.26},
                            {"Google", 44, 0.10},
                            {"NextDNS", 6, -1},
                            {"Quad9", 769, -1}};

  const auto stats_rows = data.client_provider_stats();

  report::Table table("Potential improvement (miles)");
  table.header({"Provider", "median", "p75", ">=1000 mi", "at nearest",
                "paper median", "paper >=1000"});
  report::CsvWriter csv({"provider", "miles", "cdf"});
  for (const PaperRow& row : paper) {
    std::vector<double> improvement;
    int at_nearest = 0;
    for (const auto& s : stats_rows) {
      if (s.provider != row.provider) continue;
      improvement.push_back(s.potential_improvement_miles);
      at_nearest += s.potential_improvement_miles < 1.0;
    }
    const stats::EmpiricalCdf cdf(improvement);
    for (const auto& [value, fraction] : cdf.curve(50)) {
      csv.add_row({row.provider, report::fmt(value, 1),
                   report::fmt(fraction, 3)});
    }
    table.row(
        {row.provider, report::fmt(stats::median(improvement), 0),
         report::fmt(stats::quantile(improvement, 0.75), 0),
         report::fmt_percent(1.0 - stats::fraction_below(improvement, 1000)),
         report::fmt_percent(static_cast<double>(at_nearest) /
                             improvement.size()),
         report::fmt(row.median_mi, 0),
         row.over_1000_fraction < 0
             ? "-"
             : report::fmt_percent(row.over_1000_fraction)});
  }
  table.caption(
      "Paper: Quad9 assigns only 21% of clients to the closest PoP; "
      "NextDNS is near-optimal; 26% of Cloudflare clients could move "
      ">=1000 mi closer vs 10% for Google.");
  std::fputs(table.render().c_str(), stdout);
  const std::string csv_path =
      benchsupport::out_path("fig6_potential_improvement.csv");
  csv.write_file(csv_path);
  std::printf("CDF series written to %s\n", csv_path.c_str());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig6_potential_improvement", bench);
}
