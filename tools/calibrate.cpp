// Calibration harness: runs a scaled-down paper-baseline campaign and
// prints every headline number the paper reports, next to the paper's
// value, so the world-model constants can be tuned. Not part of the
// benchmark suite.
//
//   calibrate [SCALE]   (world.client_scale; default 0.15)
#include <cstdio>

#include "measure/flows.h"
#include "measure/regression.h"
#include "scenario/runner.h"
#include "stats/summary.h"
#include "world/world_model.h"

using namespace dohperf;

int main(int argc, char** argv) {
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  spec.world.client_scale = 0.15;
  std::string error = "usage: calibrate [SCALE]";
  if (argc > 2 || (argc == 2 && !scenario::set_override(
                                    spec, "SCALE", "world.client_scale",
                                    argv[1], &error))) {
    std::fprintf(stderr, "calibrate: %s\n", error.c_str());
    return 2;
  }
  scenario::scale_atlas_to_world(spec);

  world::WorldModel world(spec.world);
  std::printf("world: %zu exit nodes, %zu countries\n", world.exit_count(),
              world.countries().size());
  const scenario::RunResult run = scenario::run(spec, world);
  const measure::Dataset& data = run.dataset;

  std::printf("clients retained: %zu  discarded: %llu  failed: %llu\n",
              data.clients().size(),
              static_cast<unsigned long long>(data.discarded_mismatch),
              static_cast<unsigned long long>(data.failed_measurements));

  const auto all_tdoh = data.tdoh_values();
  const auto all_do53 = data.do53_values();
  std::printf("global median DoH1 %.0f ms (paper 415)\n",
              stats::median(all_tdoh));
  std::printf("global median Do53 %.0f ms (paper 234)\n",
              stats::median(all_do53));

  struct PaperRow {
    const char* provider;
    double doh1, dohr;
  };
  const PaperRow paper[] = {{"Cloudflare", 338, 257},
                            {"Google", 429, 315},
                            {"NextDNS", 467, 324},
                            {"Quad9", 447, 298}};
  for (const auto& row : paper) {
    const auto tdoh = data.tdoh_values(row.provider);
    const auto tdohr = data.tdohr_values(row.provider);
    std::printf("%-10s DoH1 %.0f (paper %.0f)   DoHR %.0f (paper %.0f)\n",
                row.provider, stats::median(tdoh), row.doh1,
                stats::median(tdohr), row.dohr);
  }

  // Per-client multiplier medians (paper: 1.84 / 1.24 / 1.18 / 1.17).
  const auto stats_rows = data.client_provider_stats();
  std::vector<double> m1, m10, m100, m1000, deltas;
  int speedup1 = 0, with_do53 = 0;
  for (const auto& s : stats_rows) {
    if (!s.has_do53() || s.do53_ms <= 0) continue;
    ++with_do53;
    m1.push_back(s.tdoh_ms / s.do53_ms);
    m10.push_back(s.doh_n(10) / s.do53_ms);
    m100.push_back(s.doh_n(100) / s.do53_ms);
    m1000.push_back(s.doh_n(1000) / s.do53_ms);
    deltas.push_back(s.doh_n(10) - s.do53_ms);
    if (s.tdoh_ms < s.do53_ms) ++speedup1;
  }
  std::printf("multiplier medians: %.2f %.2f %.2f %.2f (paper 1.84 1.24 1.18 1.17)\n",
              stats::median(m1), stats::median(m10), stats::median(m100),
              stats::median(m1000));
  std::printf("DoH1 speedup clients: %.1f%% (paper 19.1%%)\n",
              100.0 * speedup1 / std::max(1, with_do53));
  std::printf("median DoH10-Do53 delta: %.0f ms (paper 65)\n",
              stats::median(deltas));

  // Country-level deltas (paper: 8.8%% of countries benefit; per-country
  // medians DoH1 564.7 / Do53 332.9).
  const auto countries = data.analysis_countries(10);
  const auto do53_by_country = data.country_do53_medians();
  const auto doh1_by_country = data.country_doh_medians("", 1);
  std::vector<double> country_doh1, country_do53;
  int benefit = 0, total = 0;
  for (const auto& iso2 : countries) {
    const auto d53 = do53_by_country.find(iso2);
    const auto doh = doh1_by_country.find(iso2);
    if (d53 == do53_by_country.end() || doh == doh1_by_country.end()) continue;
    ++total;
    country_do53.push_back(d53->second);
    country_doh1.push_back(doh->second);
    if (doh->second < d53->second) ++benefit;
  }
  std::printf("analysis countries: %zu (paper 199)\n", countries.size());
  std::printf("country median DoH1 %.0f (paper 564.7), Do53 %.0f (paper 332.9)\n",
              stats::median(country_doh1), stats::median(country_do53));
  std::printf("countries benefiting from DoH1: %.1f%% (paper 8.8%%)\n",
              100.0 * benefit / std::max(1, total));

  // Figure 6: potential improvement medians per provider
  // (paper: CF 46 mi, Google 44 mi, NextDNS 6 mi, Quad9 769 mi).
  for (const auto& row : paper) {
    std::vector<double> imp;
    std::vector<double> over1000;
    for (const auto& s : stats_rows) {
      if (s.provider == row.provider) {
        imp.push_back(s.potential_improvement_miles);
      }
    }
    double frac_1000 = 0;
    for (double v : imp) frac_1000 += v >= 1000.0 ? 1.0 : 0.0;
    std::printf("%-10s potential improvement median %.0f mi, >=1000mi %.1f%%\n",
                row.provider, stats::median(imp),
                100.0 * frac_1000 / std::max<std::size_t>(1, imp.size()));
  }
  // Table 4 preview: logistic odds ratios.
  {
    const auto rows = measure::regression_rows(data);
    const auto med = measure::multiplier_medians(rows);
    std::printf("\nmultiplier medians (regression rows): %.2f %.2f %.2f %.2f\n",
                med.m1, med.m10, med.m100, med.m1000);
    for (const int n : {1, 10, 100, 1000}) {
      const auto fit = measure::fit_slowdown_logistic(rows, n);
      std::printf(
          "OR_%d: bw-slow %.2f  inc-um %.2f  inc-lm %.2f  inc-low %.2f  "
          "ases-low %.2f  G %.2f  N %.2f  Q %.2f\n",
          n, fit.term(measure::kTermSlowBandwidth).odds_ratio,
          fit.term(measure::kTermUpperMiddle).odds_ratio,
          fit.term(measure::kTermLowerMiddle).odds_ratio,
          fit.term(measure::kTermLowIncome).odds_ratio,
          fit.term(measure::kTermFewAses).odds_ratio,
          fit.term(measure::kTermGoogle).odds_ratio,
          fit.term(measure::kTermNextDns).odds_ratio,
          fit.term(measure::kTermQuad9).odds_ratio);
    }
    const auto lin = measure::fit_delta_linear(rows, 1);
    std::printf("Delta1 scaled coefs: bw %.1f ases %.1f nsdist %.1f rdist %.1f gdp %.1f\n",
                lin.term(measure::kTermBandwidth).scaled_coef,
                lin.term(measure::kTermNumAses).scaled_coef,
                lin.term(measure::kTermNsDistance).scaled_coef,
                lin.term(measure::kTermResolverDistance).scaled_coef,
                lin.term(measure::kTermGdp).scaled_coef);
  }

  // Component breakdown via direct flows on a client sample.
  std::printf("\ncomponents (direct flows, medians):\n");
  for (std::size_t p = 0; p < world.providers().size(); ++p) {
    auto& provider = world.providers()[p];
    std::vector<double> dns, connect, tls, query, reuse;
    netsim::Rng sample_rng = world.rng().split("component-sample");
    int taken = 0;
    for (const auto& iso2 : world.countries()) {
      if (taken > 400) break;
      const auto* exit = world.brightdata().pick_exit(iso2, sample_rng);
      if (exit == nullptr) continue;
      const auto pop = provider.route(exit->site.position,
                                      exit->anycast_region, sample_rng);
      const auto obs = world.run_flow([&](netsim::NetCtx& net) {
        return measure::doh_direct(net, exit->site, exit->default_resolver,
                                   world.doh_server(p, pop),
                                   world.config().tls_version,
                                   world.origin());
      });
      if (!obs.ok) continue;
      dns.push_back(obs.dns_ms);
      connect.push_back(obs.connect_ms);
      tls.push_back(obs.tls_ms);
      query.push_back(obs.query_ms);
      reuse.push_back(obs.reuse_ms);
      ++taken;
    }
    std::printf(
        "%-10s dns %.0f  tcp %.0f  tls %.0f  query %.0f  reuse %.0f\n",
        provider.name().c_str(), stats::median(dns), stats::median(connect),
        stats::median(tls), stats::median(query), stats::median(reuse));
  }
  return 0;
}
