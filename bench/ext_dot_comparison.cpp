// Extension — DoT vs DoH vs Do53 (paper Section 8 relates its DoH results
// to Doan et al.'s DoT study; here both protocols run on the same
// substrate so the comparison is apples-to-apples).
//
// Expectations from the literature reproduced here:
//   * DoT and DoH have near-identical reuse costs (same session, DoT
//     saves only the HTTP framing);
//   * both are slower than Do53 on first use;
//   * Cloudflare/Google outperform Quad9 for encrypted DNS.
#include <cstdio>
#include <vector>

#include "measure/flows.h"
#include "resolver/stub.h"
#include "stats/bootstrap.h"
#include "support.h"

using namespace dohperf;

namespace {

int bench() {
  std::printf("Extension: DoT vs DoH vs Do53 on the same vantage points\n\n");
  auto& env = benchsupport::Env::instance();
  auto& world = env.world();

  // Sample one client per country for each provider.
  report::Table table("First-query and reuse medians (ms)");
  table.header({"Provider", "DoT1", "DoTR", "DoH1", "DoHR",
                "DoH1 - DoT1"});

  std::vector<double> do53;
  for (std::size_t p = 0; p < world.providers().size(); ++p) {
    auto& provider = world.providers()[p];
    std::vector<double> dot1, dotr, doh1, dohr;
    netsim::Rng rng = world.rng().split("ext-dot-" + provider.name());
    for (const auto& iso2 : world.countries()) {
      const proxy::ExitNode* exit = world.brightdata().pick_exit(iso2, rng);
      if (exit == nullptr) continue;
      const std::size_t pop =
          provider.route(exit->site.position, exit->anycast_region, rng);

      auto& server = world.doh_server(p, pop);
      const auto dot = world.run_flow([&](netsim::NetCtx& net) {
        return measure::dot_direct(net, exit->site, exit->default_resolver,
                                   server);
      });
      if (dot.ok) {
        dot1.push_back(dot.first_ms());
        dotr.push_back(dot.reuse_ms);
      }
      const auto doh = world.run_flow([&](netsim::NetCtx& net) {
        return measure::doh_direct(net, exit->site, exit->default_resolver,
                                   server);
      });
      if (doh.ok) {
        doh1.push_back(doh.first_ms());
        dohr.push_back(doh.reuse_ms);
      }
      if (p == 0) {
        const double ms = world.run_flow([&](netsim::NetCtx& net) {
          return measure::do53_direct(net, exit->site,
                                      exit->default_resolver,
                                      resolver::probe_name(net.rng));
        });
        if (ms >= 0) do53.push_back(ms);
      }
    }
    const double dot1_median = stats::median_inplace(dot1);
    const double doh1_median = stats::median_inplace(doh1);
    table.row({provider.name(), report::fmt(dot1_median, 0),
               report::fmt(stats::median_inplace(dotr), 0),
               report::fmt(doh1_median, 0),
               report::fmt(stats::median_inplace(dohr), 0),
               report::fmt(doh1_median - dot1_median, 1)});
  }
  table.caption(
      "One sampled client per country per provider; DoT skips the HTTP "
      "framing so its queries are marginally cheaper on the wire.");
  std::fputs(table.render().c_str(), stdout);

  netsim::Rng ci_rng(7);
  const auto ci = stats::median_ci(do53, ci_rng);
  std::printf(
      "Do53 median on the same vantage points: %.0f ms "
      "(95%% bootstrap CI %.0f..%.0f)\n",
      ci.point, ci.lo, ci.hi);
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_dot_comparison", bench);
}
