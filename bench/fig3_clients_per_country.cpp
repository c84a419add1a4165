// Figure 3 — Clients per country in the dataset.
//
// Paper: median 103 unique clients per analysed country; >= 200 clients
// for 17% of countries; range 10..282.
#include <cstdio>
#include <vector>

#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Figure 3: clients per country");
  const auto& data = benchsupport::Env::instance().dataset();

  const auto analysis = data.analysis_countries();
  const auto counts = data.clients_per_country();
  std::vector<double> analysed;
  for (const auto& iso2 : analysis) {
    analysed.push_back(static_cast<double>(counts.at(iso2)));
  }

  report::Table table("Distribution over analysed countries");
  table.header({"Statistic", "ours", "paper"});
  table.row({"countries analysed", std::to_string(analysis.size()), "199"});
  table.row({"median clients/country",
             report::fmt(stats::median(analysed), 0), "103"});
  table.row({"min", report::fmt(stats::min_value(analysed), 0), "10"});
  table.row({"max", report::fmt(stats::max_value(analysed), 0), "282"});
  table.row({">=200 clients",
             report::fmt_percent(1.0 - stats::fraction_below(analysed, 200)),
             "17%"});
  std::fputs(table.render().c_str(), stdout);

  // Decile table (the figure's histogram, as numbers).
  report::Table deciles("Clients-per-country deciles");
  deciles.header({"decile", "clients"});
  for (int d = 0; d <= 10; ++d) {
    deciles.row({std::to_string(d * 10) + "%",
                 report::fmt(stats::quantile(analysed, d / 10.0), 0)});
  }
  std::fputs(deciles.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("fig3_clients_per_country", bench);
}
