// Table 3 — Dataset composition, plus the Section 5 headline medians.
#include <cstdio>

#include "anycast/catalog.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Table 3: dataset composition");
  const auto& data = benchsupport::Env::instance().dataset();

  struct PaperRow {
    const char* provider;
    std::size_t clients, countries;
  };
  const PaperRow paper[] = {{"Cloudflare", 21858, 222},
                            {"Google", 21905, 223},
                            {"NextDNS", 21947, 223},
                            {"Quad9", 21897, 223}};

  report::Table table("Dataset composition (paper Table 3)");
  table.header({"Resolver", "Clients", "Countries", "paper clients",
                "paper countries"});
  for (const PaperRow& row : paper) {
    table.row({row.provider,
               std::to_string(data.unique_clients(row.provider)),
               std::to_string(data.unique_countries(row.provider)),
               std::to_string(row.clients), std::to_string(row.countries)});
  }
  table.row({"Do53 (Default)", std::to_string(data.clients().size()),
             std::to_string(data.clients_per_country().size()), "22052",
             "224"});
  table.caption(
      "Per-provider client counts fall below the Do53 total because some "
      "(client, provider) pairs are persistently unreachable. The Do53 "
      "row counts all retained clients; in the 11 Super Proxy countries "
      "the Do53 values themselves come from the RIPE Atlas substrate "
      "(" + std::to_string(data.do53_clients()) +
      " clients have per-client Do53 data).");
  std::fputs(table.render().c_str(), stdout);

  // Headline medians (paper Section 1/5).
  report::Table headline("Headline medians");
  headline.header({"Metric", "ours (ms)", "paper (ms)"});
  std::vector<double> tdoh = data.tdoh_values();
  headline.row({"global DoH1", report::fmt(stats::median_inplace(tdoh), 0),
                "415"});
  std::vector<double> do53 = data.do53_values();
  headline.row({"global Do53", report::fmt(stats::median_inplace(do53), 0),
                "234"});
  for (const char* provider : anycast::kProviderNames) {
    std::vector<double> doh1 = data.tdoh_values(provider);
    headline.row({std::string(provider) + " DoH1",
                  report::fmt(stats::median_inplace(doh1), 0),
                  provider == std::string("Cloudflare")   ? "338"
                  : provider == std::string("Google")     ? "429"
                  : provider == std::string("NextDNS")    ? "467"
                                                          : "447"});
    std::vector<double> dohr = data.tdohr_values(provider);
    headline.row({std::string(provider) + " DoHR",
                  report::fmt(stats::median_inplace(dohr), 0),
                  provider == std::string("Cloudflare")   ? "257"
                  : provider == std::string("Google")     ? "315"
                  : provider == std::string("NextDNS")    ? "324"
                                                          : "298"});
  }
  std::fputs(headline.render().c_str(), stdout);

  const auto analysis = data.analysis_countries(10);
  std::printf("countries passing the >=10-clients-per-provider filter: %zu "
              "(paper: 199 of 224)\n",
              analysis.size());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("table3_dataset", bench);
}
