// Table 4 — Modelling DoH-vs-Do53 slowdowns: logistic regression odds
// ratios at N = 1 / 10 / 100 / 1000 requests per connection.
#include <cstdio>

#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  benchsupport::print_banner("Table 4: logistic model of DoH slowdowns");
  const auto& data = benchsupport::Env::instance().dataset();

  const auto rows = measure::regression_rows(data);
  const auto medians = measure::multiplier_medians(rows);
  std::printf(
      "global median multipliers: %.2fx %.2fx %.2fx %.2fx "
      "(paper: 1.84x 1.24x 1.18x 1.17x)\n\n",
      medians.m1, medians.m10, medians.m100, medians.m1000);

  struct TermRow {
    const char* label;
    const char* term;
    double paper_or1, paper_or10, paper_or100, paper_or1000;
  };
  const TermRow terms[] = {
      {"Bandwidth: Slow (ctl Fast)", measure::kTermSlowBandwidth, 1.81, 1.69,
       1.66, 1.65},
      {"Income: Upper-middle (ctl High)", measure::kTermUpperMiddle, 1.50,
       1.06, 1.00, 0.99},
      {"Income: Lower-middle", measure::kTermLowerMiddle, 1.76, 1.27, 1.20,
       1.19},
      {"Income: Low", measure::kTermLowIncome, 1.98, 1.37, 1.27, 1.25},
      {"Num ASes: Lower than median", measure::kTermFewAses, 1.99, 1.76,
       1.70, 1.69},
      {"Resolver: Google (ctl Cloudflare)", measure::kTermGoogle, 1.76, 1.77,
       1.71, 1.70},
      {"Resolver: NextDNS", measure::kTermNextDns, 2.25, 1.99, 1.91, 1.90},
      {"Resolver: Quad9", measure::kTermQuad9, 1.78, 1.34, 1.27, 1.25},
  };

  const stats::LogisticFit fits[] = {
      measure::fit_slowdown_logistic(rows, 1),
      measure::fit_slowdown_logistic(rows, 10),
      measure::fit_slowdown_logistic(rows, 100),
      measure::fit_slowdown_logistic(rows, 1000),
  };

  report::Table table("Odds of a worse-than-median slowdown");
  table.header({"Variable", "OR", "OR_10", "OR_100", "OR_1000",
                "paper OR", "paper OR_1000"});
  for (const TermRow& term : terms) {
    table.row({term.label,
               report::fmt_ratio(fits[0].term(term.term).odds_ratio),
               report::fmt_ratio(fits[1].term(term.term).odds_ratio),
               report::fmt_ratio(fits[2].term(term.term).odds_ratio),
               report::fmt_ratio(fits[3].term(term.term).odds_ratio),
               report::fmt_ratio(term.paper_or1),
               report::fmt_ratio(term.paper_or1000)});
  }
  table.caption(
      "Outcome: client-provider multiplier above the global median. "
      "Baselines: fast bandwidth, high income, above-median ASes, "
      "Cloudflare.");
  std::fputs(table.render().c_str(), stdout);

  // Client-level speedup shares (paper Sections 1 and 5).
  int speed1 = 0, speed10 = 0;
  for (const auto& row : rows) {
    speed1 += row.multiplier_1 < 1.0;
    speed10 += row.multiplier_10 < 1.0;
  }
  std::printf(
      "clients with a DoH1 speedup: %.1f%% (paper 19.1%%); with a DoH10 "
      "speedup: %.1f%% (paper 28%%)\n",
      100.0 * speed1 / rows.size(), 100.0 * speed10 / rows.size());
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("table4_logistic", bench);
}
