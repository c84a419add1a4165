// Provider comparison: a miniature of the paper's Figure 4 / Figure 7 for
// a handful of countries — run the campaign and compare the four public
// DoH services against the default resolvers.
//
//   ./provider_comparison [ISO2 ISO2 ...]   (default: SE BR ZA TH)
#include <cstdio>
#include <string>
#include <vector>

#include "report/table.h"
#include "scenario/runner.h"
#include "stats/summary.h"

using namespace dohperf;

int main(int argc, char** argv) {
  std::string iso2_list;
  for (int i = 1; i < argc; ++i) {
    iso2_list += (i > 1 ? "," : "") + std::string(argv[i]);
  }
  scenario::CampaignSpec spec;
  spec.world.seed = 2;
  spec.campaign.atlas_measurements_per_country = 30;
  std::string error;
  if (!scenario::set_override(spec, "ISO2", "world.only_countries",
                              argc > 1 ? iso2_list : "SE,BR,ZA,TH", &error)) {
    std::fprintf(stderr, "provider_comparison: %s\n", error.c_str());
    return 2;
  }
  const scenario::RunResult result = scenario::run(spec);
  const measure::Dataset& data = result.dataset;
  const std::vector<std::string>& countries = spec.world.only_countries;

  std::printf("measured %zu clients in %zu countries\n\n",
              data.clients().size(), countries.size());

  const auto do53 = data.country_do53_medians();
  for (const std::string& iso2 : countries) {
    report::Table table("Country " + iso2);
    table.header({"Resolver", "DoH1 (ms)", "DoHR (ms)", "DoH10 (ms)",
                  "vs Do53"});
    const double base =
        do53.count(iso2) ? do53.at(iso2) : stats::median(data.do53_values());
    for (const char* provider :
         {"Cloudflare", "Google", "NextDNS", "Quad9"}) {
      const auto doh1 = data.country_doh_medians(provider, 1);
      const auto dohr_values = [&] {
        std::vector<double> out;
        for (const auto& rec : data.doh()) {
          if (data.name(rec.provider) == provider &&
              data.name(rec.iso2) == iso2) {
            out.push_back(rec.tdohr_ms);
          }
        }
        return out;
      }();
      const auto doh10 = data.country_doh_medians(provider, 10);
      if (!doh1.count(iso2)) continue;
      const double delta = doh10.at(iso2) - base;
      table.row({provider, report::fmt(doh1.at(iso2), 0),
                 report::fmt(stats::median(dohr_values), 0),
                 report::fmt(doh10.at(iso2), 0),
                 (delta >= 0 ? "+" : "") + report::fmt(delta, 0) + " ms"});
    }
    table.caption("Do53 (default resolvers) median: " +
                  report::fmt(base, 0) + " ms");
    std::fputs(table.render().c_str(), stdout);
  }
  return 0;
}
