// Ablations — each prices one modelling choice or paper limitation by
// flipping one [world] key of a quarter-scale campaign:
//
//   world.couple_infra     infrastructure coupling (DESIGN.md modelling
//                          choice #1): with it off, every country gets the
//                          global-median network parameters and the paper's
//                          Table 4/5 effects must largely disappear.
//   world.perfect_anycast  anycast routing noise (choice #2): perfect
//                          nearest-PoP routing must collapse Figure 6's
//                          potential improvement and speed DoH up.
//   world.authority_city   name-server location (paper Section 7: "a single
//                          authoritative name server in one location").
//   world.tls_version      TLS 1.2 (paper Section 7: "clients that still use
//                          TLS 1.2 will have slower DoH performance").
//
// Each ablation is an inline one-axis [sweep] document: scenario::expand()
// turns it into cells and scenario::run() executes each cell, so
// DOHPERF_SCALE multiplies the quarter-scale base and DOHPERF_SEED sets
// the seed, as for every spec. This file only reduces each cell's dataset
// to the numbers its table shows. Exit status 1 when the TLS contract
// fails: TLS 1.2 must make the global DoH1 median slower.
#include <cstdio>
#include <vector>

#include "anycast/catalog.h"
#include "scenario/sweep.h"
#include "support.h"

using namespace dohperf;

namespace {

/// The numbers one cell contributes to its ablation's table.
using Numbers = std::vector<double>;
using Cells = std::vector<scenario::SweepCell>;

double median(std::vector<double> values) {
  return stats::median_inplace(values);
}

std::string whole(double v) { return report::fmt(v, 0); }
std::string tenths(double v) { return report::fmt(v, 1); }
std::string ratio(double v) { return report::fmt_ratio(v); }

// ---- infrastructure coupling ------------------------------------------

Numbers coupling_numbers(const measure::Dataset& data) {
  const auto rows = measure::regression_rows(data);
  const auto logistic = measure::fit_slowdown_logistic(rows, 1);
  const auto linear = measure::fit_delta_linear(rows, 1);
  return {logistic.term(measure::kTermSlowBandwidth).odds_ratio,
          logistic.term(measure::kTermFewAses).odds_ratio,
          linear.term(measure::kTermBandwidth).scaled_coef,
          median(data.tdoh_values()), median(data.do53_values())};
}

bool coupling_table(const Cells&, const std::vector<Numbers>& numbers) {
  const Numbers& coupled = numbers[0];
  const Numbers& uniform = numbers[1];
  report::Table table("Infrastructure coupling ablation");
  table.header({"Metric", "coupled (default)", "uniform world"});
  table.row({"OR slow bandwidth (DoH1)", ratio(coupled[0]), ratio(uniform[0])});
  table.row({"OR few ASes (DoH1)", ratio(coupled[1]), ratio(uniform[1])});
  table.row({"scaled bandwidth coef (ms)", tenths(coupled[2]),
             tenths(uniform[2])});
  table.row({"global DoH1 median (ms)", whole(coupled[3]), whole(uniform[3])});
  table.row({"global Do53 median (ms)", whole(coupled[4]), whole(uniform[4])});
  table.caption(
      "Expectation: with the coupling removed, the bandwidth/AS odds "
      "ratios collapse towards 1x and the scaled bandwidth coefficient "
      "towards 0 — the covariates no longer describe the network.");
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// ---- anycast routing noise --------------------------------------------

/// Per provider, in catalog order: potential-improvement, DoH1 and DoHR
/// medians.
Numbers anycast_numbers(const measure::Dataset& data) {
  const auto stats_rows = data.client_provider_stats();
  Numbers out;
  for (const char* provider : anycast::kProviderNames) {
    std::vector<double> improvement;
    for (const auto& s : stats_rows) {
      if (s.provider == provider) {
        improvement.push_back(s.potential_improvement_miles);
      }
    }
    out.push_back(median(improvement));
    out.push_back(median(data.tdoh_values(provider)));
    out.push_back(median(data.tdohr_values(provider)));
  }
  return out;
}

bool anycast_table(const Cells&, const std::vector<Numbers>& numbers) {
  const Numbers& noisy = numbers[0];
  const Numbers& perfect = numbers[1];
  report::Table table("Anycast routing ablation");
  table.header({"Provider", "impr. median (noisy)", "impr. median (perfect)",
                "DoH1 noisy", "DoH1 perfect", "DoHR noisy",
                "DoHR perfect"});
  for (std::size_t p = 0; p < 4; ++p) {
    const std::size_t i = 3 * p;
    table.row({anycast::kProviderNames[p], whole(noisy[i]) + " mi",
               whole(perfect[i]) + " mi", whole(noisy[i + 1]),
               whole(perfect[i + 1]), whole(noisy[i + 2]),
               whole(perfect[i + 2])});
  }
  table.caption(
      "With perfect routing the potential improvement collapses to ~0 "
      "(geolocation noise only) and Quad9 gains the most — the paper's "
      "point that PoP assignment, not PoP count, is Quad9's problem.");
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// ---- authoritative name-server location -------------------------------

Numbers authority_numbers(const measure::Dataset& data) {
  std::vector<double> delta10;
  for (const auto& s : data.client_provider_stats()) {
    if (s.has_do53()) delta10.push_back(s.doh_n(10) - s.do53_ms);
  }
  return {median(data.do53_values()), median(data.tdoh_values()),
          median(delta10)};
}

bool authority_table(const Cells& cells, const std::vector<Numbers>& numbers) {
  report::Table table("a.com hosted in different metros");
  table.header({"Authority metro", "Do53 median", "DoH1 median",
                "DoH10-Do53 delta"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.row({cells[i].spec.world.authority_city, whole(numbers[i][0]),
               whole(numbers[i][1]), tenths(numbers[i][2])});
  }
  table.caption(
      "Moving the authoritative server shifts absolute resolution times "
      "(both protocols pay the long leg) but the DoH-vs-Do53 delta is "
      "far more stable — supporting the paper's choice to control for "
      "name-server distance in its regressions rather than vary it.");
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// ---- TLS version ------------------------------------------------------

Numbers tls_numbers(const measure::Dataset& data) {
  return {median(data.tdoh_values()),
          measure::multiplier_medians(measure::regression_rows(data)).m1};
}

bool tls_table(const Cells&, const std::vector<Numbers>& numbers) {
  const Numbers& tls13 = numbers[0];
  const Numbers& tls12 = numbers[1];
  report::Table table("TLS version ablation");
  table.header({"Metric", "TLS 1.3", "TLS 1.2"});
  table.row({"global DoH1 median (ms)", whole(tls13[0]), whole(tls12[0])});
  table.row({"median DoH1/Do53 multiplier", ratio(tls13[1]), ratio(tls12[1])});
  table.caption(
      "TLS 1.2 adds a round trip through the tunnel to the DoH resolver "
      "per fresh connection; relative infrastructure trends persist, as "
      "the paper argues.");
  std::fputs(table.render().c_str(), stdout);
  return tls12[0] > tls13[0];  // the contract: TLS 1.2 is slower
}

/// One ablation: its one-axis sweep document, the numbers each cell's
/// dataset contributes, and the table they fill (false when the
/// ablation's contract fails).
struct Ablation {
  const char* intro;
  const char* spec;
  Numbers (*reduce)(const measure::Dataset&);
  bool (*table)(const Cells&, const std::vector<Numbers>&);
};

const Ablation kAblations[] = {
    {"Ablation: country-covariate coupling of the latency model\n"
     "(runs two quarter-scale campaigns; does not use the shared "
     "full-scale dataset)\n\n",
     R"(name = "ablation-infra-coupling"
[world]
client_scale = 0.25
[campaign]
atlas_measurements_per_country = 40
[sweep]
world.couple_infra = [true, false]
)",
     coupling_numbers, coupling_table},
    {"Ablation: calibrated anycast noise vs perfect nearest-PoP "
     "routing\n(two quarter-scale campaigns)\n\n",
     R"(name = "ablation-anycast"
[world]
client_scale = 0.25
[campaign]
atlas_measurements_per_country = 20
[sweep]
world.perfect_anycast = [false, true]
)",
     anycast_numbers, anycast_table},
    {"Ablation: authoritative name-server location\n"
     "(three quarter-scale campaigns)\n\n",
     R"(name = "ablation-ns-location"
[world]
client_scale = 0.25
[campaign]
atlas_measurements_per_country = 20
[sweep]
world.authority_city = ["Ashburn", "Frankfurt", "Singapore"]
)",
     authority_numbers, authority_table},
    {"Ablation: TLS 1.3 (default) vs TLS 1.2 handshakes\n"
     "(two quarter-scale campaigns)\n\n",
     R"(name = "ablation-tls12"
[world]
client_scale = 0.25
[campaign]
atlas_measurements_per_country = 20
[sweep]
world.tls_version = ["tls13", "tls12"]
)",
     tls_numbers, tls_table},
};

int bench() {
  bool ok = true;
  for (const Ablation& ablation : kAblations) {
    const Cells cells =
        scenario::expand(benchsupport::inline_spec(ablation.spec, "ablations"));
    std::fputs(ablation.intro, stdout);
    std::vector<Numbers> numbers;
    for (const scenario::SweepCell& cell : cells) {
      numbers.push_back(ablation.reduce(scenario::run(cell.spec).dataset));
    }
    ok = ablation.table(cells, numbers) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  return benchsupport::run_main("ablations", bench);
}
