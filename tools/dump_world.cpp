// dump_world — export the synthetic world's static data as CSV: the
// country covariate table with derived network profiles, and the four
// provider PoP catalogs. Useful for plotting and for auditing the
// substitution choices documented in DESIGN.md.
//
//   dump_world [output-directory]   (default: ".")
#include <cstdio>
#include <stdexcept>
#include <string>

#include "anycast/provider.h"
#include "report/csv.h"
#include "report/table.h"
#include "world/sites.h"

using namespace dohperf;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";

  // A failed write is one line naming the program and exit 1.
  try {
    report::CsvWriter countries(
        {"iso2", "name", "region", "lat", "lon", "gdp_per_capita_usd",
         "bandwidth_mbps", "num_ases", "income_group", "fast_internet",
         "lastmile_median_ms", "route_inflation", "resolver_processing_ms",
         "isp_transit_penalty"});
    for (const geo::Country& country : geo::world_table()) {
      const auto profile = world::profile_for(country);
      countries.add_row(
          {std::string(country.iso2), std::string(country.name),
           std::string(geo::to_string(country.region)),
           report::fmt(country.centroid.lat, 2),
           report::fmt(country.centroid.lon, 2),
           report::fmt(country.gdp_per_capita_usd, 0),
           report::fmt(country.bandwidth_mbps, 0),
           std::to_string(country.num_ases),
           std::string(geo::to_string(country.income_group())),
           country.has_fast_internet() ? "1" : "0",
           report::fmt(profile.lastmile_median_ms, 2),
           report::fmt(profile.route_inflation, 3),
           report::fmt(profile.resolver_processing_ms, 2),
           report::fmt(profile.isp_transit_penalty, 3)});
    }
    const std::string countries_path = dir + "/world_countries.csv";
    countries.write_file(countries_path);
    std::printf("wrote %s (%zu rows)\n", countries_path.c_str(),
                countries.row_count());

    report::CsvWriter pops(
        {"provider", "city", "iso2", "region", "lat", "lon"});
    for (const auto& provider : anycast::studied_providers()) {
      for (const anycast::Pop& pop : provider.pops()) {
        pops.add_row({provider.name(), pop.city, pop.country_iso2,
                      std::string(geo::to_string(pop.region)),
                      report::fmt(pop.position.lat, 2),
                      report::fmt(pop.position.lon, 2)});
      }
    }
    const std::string pops_path = dir + "/provider_pops.csv";
    pops.write_file(pops_path);
    std::printf("wrote %s (%zu rows)\n", pops_path.c_str(), pops.row_count());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "dump_world: %s\n", e.what());
    return 1;
  }
  return 0;
}
