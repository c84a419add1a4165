// Table 6 — Per-resolver linear models of the Delta (DoH1 - Do53).
#include <cstdio>

#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Table 6: per-resolver linear models");
  const auto& data = benchsupport::Env::instance().dataset();
  const auto rows = measure::regression_rows(data);

  struct PaperScaled {
    const char* provider;
    double gdp, bandwidth, ases, ns_dist, resolver_dist;
  };
  const PaperScaled paper[] = {
      {"Cloudflare", 4.14, -85.3, -85.8, 32.7, 155.7},
      {"Google", -1.07, -56.8, -69.7, 40.87, 140.02},
      {"NextDNS", -19.9, -138.3, -99.8, 17.2, 111.99},
      {"Quad9", -21.6, -124.1, -49.1, 27.8, 56.0},
  };

  for (const PaperScaled& row : paper) {
    const auto fit =
        measure::fit_delta_linear_for_provider(rows, row.provider);
    report::Table table(std::string(row.provider) +
                        ": Delta = DoH1 - Do53");
    table.header({"Metric", "coef (ms)", "scaled coef (ms)", "p",
                  "paper scaled"});
    const struct {
      const char* term;
      const char* label;
      double paper_value;
    } terms[] = {
        {measure::kTermGdp, "GDP", row.gdp},
        {measure::kTermBandwidth, "Bandwidth", row.bandwidth},
        {measure::kTermNumAses, "Num ASes", row.ases},
        {measure::kTermNsDistance, "Nameserver Dist.", row.ns_dist},
        {measure::kTermResolverDistance, "Resolver Dist.",
         row.resolver_dist},
    };
    for (const auto& t : terms) {
      const auto& term = fit.term(t.term);
      table.row({t.label, report::fmt(term.coef, 4),
                 report::fmt(term.scaled_coef, 1),
                 report::fmt(term.p_value, 3),
                 report::fmt(t.paper_value, 1)});
    }
    table.caption("n = " + std::to_string(fit.n));
    std::fputs(table.render().c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("table6_per_resolver", bench);
}
