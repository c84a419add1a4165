// Table 5 — Linear modelling of the raw Do53 -> DoH delta (ms) at
// N = 1 / 10 / 100, with raw and min-max-scaled coefficients.
#include <cstdio>

#include "support.h"

using namespace dohperf;

namespace {

struct PaperRow {
  const char* term;
  const char* label;
  double scaled_1, scaled_10, scaled_100;
};

constexpr PaperRow kPaper[] = {
    {measure::kTermGdp, "GDP", -13.8, -7.3, -6.6},
    {measure::kTermBandwidth, "Bandwidth", -134.5, -73.3, -67.2},
    {measure::kTermNumAses, "Num ASes", -80.8, -63.6, -61.9},
    {measure::kTermNsDistance, "Nameserver Dist.", 30.0, 19.6, 18.5},
    {measure::kTermResolverDistance, "Resolver Dist.", 93.4, 42.4, 37.3},
};

int bench() {
  benchsupport::print_banner("Table 5: linear model of Do53->DoH deltas");
  const auto& data = benchsupport::Env::instance().dataset();
  const auto rows = measure::regression_rows(data);

  for (const int n : {1, 10, 100}) {
    const auto fit = measure::fit_delta_linear(rows, n);
    report::Table table("Delta" + std::string(n == 1 ? "" : " ") +
                        (n == 1 ? "" : std::to_string(n)) +
                        " (DoH" + std::to_string(n) + " - Do53)");
    table.header({"Metric", "coef (ms)", "scaled coef (ms)", "p",
                  "paper scaled"});
    for (const PaperRow& paper : kPaper) {
      const auto& term = fit.term(paper.term);
      const double paper_scaled = n == 1    ? paper.scaled_1
                                  : n == 10 ? paper.scaled_10
                                            : paper.scaled_100;
      table.row({paper.label, report::fmt(term.coef, 4),
                 report::fmt(term.scaled_coef, 1),
                 report::fmt(term.p_value, 3),
                 report::fmt(paper_scaled, 1)});
    }
    table.caption("R^2 = " + report::fmt(fit.r_squared, 3) + ", n = " +
                  std::to_string(fit.n) +
                  ". Paper: all significant at p<0.001 except GDP.");
    std::fputs(table.render().c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("table5_linear", bench);
}
