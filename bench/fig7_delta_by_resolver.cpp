// Figure 7 — DNS performance change by DoH resolver: the per-country
// delta in resolution time when switching from Do53 to DoH10.
#include <cstdio>

#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner(
      "Figure 7: per-country Do53 -> DoH10 delta by resolver");
  const auto& data = benchsupport::Env::instance().dataset();

  struct PaperRow {
    const char* provider;
    double median_delta_ms;   // Figure 7 medians
    double pct_slowdown;      // Section 5.3 per-country slowdown
  };
  const PaperRow paper[] = {{"Cloudflare", 49.65, 0.19},
                            {"Quad9", -1, 0.28},
                            {"Google", -1, 0.39},
                            {"NextDNS", 159.62, 0.47}};

  const auto analysis = data.analysis_countries(10);
  const auto do53 = data.country_do53_medians();

  report::Table table("Country-level delta (DoH10 - Do53, ms)");
  table.header({"Provider", "median delta", "p25", "p75", "% countries faster",
                "paper median"});
  int benefit_any = 0, total_any = 0;
  const auto all_doh10 = data.country_doh_medians("", 10);
  for (const auto& iso2 : analysis) {
    if (!do53.count(iso2) || !all_doh10.count(iso2)) continue;
    ++total_any;
    benefit_any += all_doh10.at(iso2) < do53.at(iso2);
  }

  for (const PaperRow& row : paper) {
    const auto doh10 = data.country_doh_medians(row.provider, 10);
    std::vector<double> deltas;
    int faster = 0;
    for (const auto& iso2 : analysis) {
      if (!do53.count(iso2) || !doh10.count(iso2)) continue;
      const double delta = doh10.at(iso2) - do53.at(iso2);
      deltas.push_back(delta);
      faster += delta < 0;
    }
    table.row({row.provider, report::fmt(stats::median(deltas), 1),
               report::fmt(stats::quantile(deltas, 0.25), 0),
               report::fmt(stats::quantile(deltas, 0.75), 0),
               report::fmt_percent(static_cast<double>(faster) /
                                   deltas.size()),
               row.median_delta_ms < 0 ? "-"
                                       : report::fmt(row.median_delta_ms, 1)});
  }
  table.caption(
      "Paper: Cloudflare the mildest (+49.65 ms median), NextDNS the "
      "worst (+159.62 ms); per-country slowdowns 19%/28%/39%/47% for "
      "CF/Quad9/Google/NextDNS.");
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "countries that benefit from DoH overall: %.1f%% (paper: 8.8%%)\n",
      100.0 * benefit_any / std::max(1, total_any));

  // Named country stories from the paper.
  const auto doh1_all = data.country_doh_medians("", 1);
  for (const char* iso2 : {"BR", "ID", "SD"}) {
    if (doh1_all.count(iso2) && do53.count(iso2)) {
      std::printf("%s: Do53 %.0f ms -> DoH1 %.0f ms (delta %+.0f)\n", iso2,
                  do53.at(iso2), doh1_all.at(iso2),
                  doh1_all.at(iso2) - do53.at(iso2));
    }
  }
  std::printf(
      "(paper: Brazil -33%% with DoH, Indonesia -179 ms, Sudan +264 ms)\n");
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig7_delta_by_resolver", bench);
}
