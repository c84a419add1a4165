// Figure 5 — Per-country median DoH resolution times and PoP counts.
//
// The maps themselves become a CSV (country, provider, median ms) plus
// PoP counts and the paper's named observations (Senegal, extremes).
#include <cstdio>

#include "anycast/catalog.h"
#include "report/csv.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner(
      "Figure 5: per-country DoH medians and points of presence");
  auto& env = benchsupport::Env::instance();
  const auto& data = env.dataset();

  // PoP counts (the black stars on the maps).
  report::Table pops("Observed points of presence");
  pops.header({"Provider", "PoPs", "paper"});
  const std::size_t counts[] = {146, 26, 107, 152};
  for (std::size_t p = 0; p < 4; ++p) {
    pops.row({anycast::kProviderNames[p],
              std::to_string(env.world().providers()[p].pops().size()),
              std::to_string(counts[p])});
  }
  pops.caption("Paper: Cloudflare 146, Google 26 (none in Africa), "
               "NextDNS 107, Quad9 ~150 (densest in Sub-Saharan Africa).");
  std::fputs(pops.render().c_str(), stdout);

  // Country medians -> CSV (the map's colour channel).
  const report::CsvWriter csv = scenario::fig5_csv(data);
  const std::string csv_path =
      benchsupport::out_path("fig5_country_medians.csv");
  csv.write_file(csv_path);
  std::printf("map data written to %s (%zu rows)\n\n", csv_path.c_str(),
              csv.row_count());

  // Named observations from the paper's Section 5.3.
  const auto analysis = data.analysis_countries(10);
  const auto all_doh = data.country_doh_medians("", 1);
  const auto all_do53 = data.country_do53_medians();
  std::vector<double> doh_medians, do53_medians;
  for (const auto& iso2 : analysis) {
    if (all_doh.count(iso2)) doh_medians.push_back(all_doh.at(iso2));
    if (all_do53.count(iso2)) do53_medians.push_back(all_do53.at(iso2));
  }
  report::Table named("Country-level observations");
  named.header({"Observation", "ours", "paper"});
  named.row({"median country DoH1 (ms)",
             report::fmt(stats::median_inplace(doh_medians), 1), "564.7"});
  named.row({"median country Do53 (ms)",
             report::fmt(stats::median_inplace(do53_medians), 1), "332.9"});
  auto row_for = [&](const char* iso2, const char* metric, double paper) {
    const auto it = all_doh.find(iso2);
    named.row({std::string(iso2) + " " + metric,
               it == all_doh.end() ? "-" : report::fmt(it->second, 0),
               report::fmt(paper, 0)});
  };
  row_for("TD", "DoH1 (slowest named)", 2011);
  row_for("BM", "DoH1 (fastest named)", 204.1);
  // Senegal: Cloudflare (local PoP) vs Google (no African PoPs).
  const auto cf_sn = data.country_doh_medians("Cloudflare", 1);
  const auto gg_sn = data.country_doh_medians("Google", 1);
  if (cf_sn.count("SN") && gg_sn.count("SN")) {
    named.row({"SN Cloudflare DoH1", report::fmt(cf_sn.at("SN"), 0), "274"});
    named.row({"SN Google DoH1", report::fmt(gg_sn.at("SN"), 0), "381"});
  }
  named.caption("Paper: Cloudflare is the only provider with a PoP in "
                "Senegal and beats Google there by >100 ms.");
  std::fputs(named.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig5_country_medians", bench);
}
