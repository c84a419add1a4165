// Figure 8 — The client map: every measured client geolocated by its /24.
// Emits the geolocated client positions as CSV plus regional totals.
#include <cstdio>
#include <map>

#include "geo/country.h"
#include "report/csv.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Figure 8: clients in the dataset");
  const auto& data = benchsupport::Env::instance().dataset();

  report::CsvWriter csv({"exit_id", "iso2", "lat", "lon"});
  std::map<std::string, std::size_t> by_region;
  for (const auto& [id, info] : data.clients()) {
    csv.add_row({std::to_string(id), info.iso2,
                 report::fmt(info.position.lat, 3),
                 report::fmt(info.position.lon, 3)});
    if (const geo::Country* c = geo::find_country(info.iso2)) {
      by_region[std::string(geo::to_string(c->region))] += 1;
    }
  }
  csv.write_file(benchsupport::out_path("fig8_clients.csv"));

  report::Table table("Clients by region");
  table.header({"Region", "clients"});
  for (const auto& [region, count] : by_region) {
    table.row({region, std::to_string(count)});
  }
  table.caption("Paper: 22,052 unique clients across 224 countries and "
                "territories, geolocated by /24.");
  std::fputs(table.render().c_str(), stdout);
  std::printf("client positions written to fig8_clients.csv (%zu rows)\n",
              csv.row_count());
  std::printf("total clients: %zu (paper 22,052), countries: %zu (paper "
              "224)\n",
              data.clients().size(), data.clients_per_country().size());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig8_client_map", bench);
}
