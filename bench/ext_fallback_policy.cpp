// Extension — browser DoH policy trade-offs under resolver outages.
//
// The paper's discussion asks software vendors to choose DoH defaults per
// country; the practical choice is between opportunistic mode (fast, but
// silently downgradable — the Huang et al. attack) and strict mode
// (private, but fails closed). This bench sweeps the DoH-unreachable
// probability and reports latency, success rate, and downgrade rate per
// mode, for a fast and a developing country.
#include <cstdio>
#include <vector>

#include "client/policy.h"
#include "support.h"

using namespace dohperf;

namespace {

struct ModeStats {
  double median_ms;
  double success_rate;
  double downgrade_rate;
};

ModeStats run_mode(world::WorldModel& world, const std::string& iso2,
                   client::DohMode mode, double outage_probability,
                   int samples) {
  std::vector<double> elapsed;
  int resolved = 0, downgraded = 0, total = 0;
  netsim::Rng rng = world.rng().split(
      "fallback-" + iso2 + std::to_string(static_cast<int>(mode)) +
      std::to_string(outage_probability));
  auto& provider = world.providers()[0];
  for (int i = 0; i < samples; ++i) {
    const proxy::ExitNode* exit = world.brightdata().pick_exit(iso2, rng);
    if (exit == nullptr) break;
    const std::size_t pop =
        provider.route(exit->site.position, exit->anycast_region, rng);

    client::PolicyContext ctx;
    ctx.client = exit->site;
    ctx.default_resolver = exit->default_resolver;
    ctx.doh = &world.doh_server(0, pop);
    ctx.doh_unreachable = rng.bernoulli(outage_probability);

    const client::PolicyOutcome outcome =
        world.run_flow([&](netsim::NetCtx& net) {
          return client::resolve_with_policy(net, ctx, mode);
        });
    ++total;
    resolved += outcome.resolved;
    downgraded += outcome.downgraded;
    if (outcome.resolved) elapsed.push_back(outcome.elapsed_ms);
  }
  return {stats::median_inplace(elapsed),
          static_cast<double>(resolved) / std::max(1, total),
          static_cast<double>(downgraded) / std::max(1, total)};
}

int bench() {
  std::printf(
      "Extension: browser DoH policies under resolver outages "
      "(Cloudflare, first-use cost)\n\n");
  auto& world = benchsupport::Env::instance().world();

  for (const char* iso2 : {"SE", "TZ"}) {
    report::Table table(std::string("Clients in ") + iso2);
    table.header({"DoH outage", "Mode", "median ms", "resolved",
                  "downgraded"});
    for (const double outage : {0.0, 0.05, 0.25}) {
      for (const client::DohMode mode :
           {client::DohMode::kOff, client::DohMode::kOpportunistic,
            client::DohMode::kStrict}) {
        const ModeStats s = run_mode(world, iso2, mode, outage, 120);
        table.row({report::fmt_percent(outage, 0),
                   std::string(client::to_string(mode)),
                   report::fmt(s.median_ms, 0),
                   report::fmt_percent(s.success_rate, 1),
                   report::fmt_percent(s.downgrade_rate, 1)});
      }
    }
    table.caption(
        "Opportunistic mode hides outages behind its 1.5 s timeout plus a "
        "Do53 retry; strict mode surfaces them as failures. Neither is "
        "free — the paper's per-country rollout question in miniature.");
    std::fputs(table.render().c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_fallback_policy", bench);
}
