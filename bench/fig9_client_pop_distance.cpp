// Figure 9 — Per-client distance to the servicing DoH PoP, by provider.
#include <cstdio>

#include "anycast/catalog.h"
#include "report/csv.h"
#include "stats/cdf.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner(
      "Figure 9: per-client distance to the servicing PoP");
  const auto& data = benchsupport::Env::instance().dataset();
  const auto stats_rows = data.client_provider_stats();

  report::Table table("Distance to the PoP used (miles)");
  table.header({"Provider", "p25", "median", "p75", "p90"});
  report::CsvWriter csv({"provider", "miles", "cdf"});
  for (const char* provider : anycast::kProviderNames) {
    std::vector<double> distances;
    for (const auto& s : stats_rows) {
      if (s.provider == provider) distances.push_back(s.pop_distance_miles);
    }
    const stats::EmpiricalCdf cdf(distances);
    for (const auto& [value, fraction] : cdf.curve(50)) {
      csv.add_row({provider, report::fmt(value, 1),
                   report::fmt(fraction, 3)});
    }
    table.row({provider, report::fmt(cdf.value_at(0.25), 0),
               report::fmt(cdf.value_at(0.50), 0),
               report::fmt(cdf.value_at(0.75), 0),
               report::fmt(cdf.value_at(0.90), 0)});
  }
  table.caption(
      "Paper (qualitative): Quad9 serves southern Africa from nearby PoPs "
      "but hauls South American clients across continents; Google's "
      "sparse catalog still yields moderate distances.");
  std::fputs(table.render().c_str(), stdout);
  const std::string csv_path =
      benchsupport::out_path("fig9_pop_distance.csv");
  csv.write_file(csv_path);
  std::printf("CDF series written to %s\n", csv_path.c_str());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig9_client_pop_distance", bench);
}
