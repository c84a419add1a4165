// Quickstart: build a small world, measure DoH and Do53 from one country,
// and print what the paper's methodology would report.
//
//   ./quickstart [ISO2]        (default: SE)
#include <cstdio>
#include <string>

#include "dns/zone.h"
#include "measure/estimator.h"
#include "measure/flows.h"
#include "scenario/spec.h"
#include "world/world_model.h"

using namespace dohperf;

int main(int argc, char** argv) {
  const std::string iso2 = argc > 1 ? argv[1] : "SE";

  // 1. Assemble a world: the a.com authoritative server in Ashburn, the
  //    four DoH providers with their PoP fleets, ISP resolvers and a
  //    client pool for the chosen country, and the proxy overlay.
  scenario::CampaignSpec spec;
  spec.world.seed = 1;
  std::string error;
  if (!scenario::set_country(spec, "ISO2", iso2, &error)) {
    std::fprintf(stderr, "quickstart: %s\n", error.c_str());
    return 2;
  }
  world::WorldModel world(spec.world);

  const proxy::ExitNode* client =
      world.brightdata().pick_exit(iso2, world.rng());
  if (client == nullptr) {
    std::fprintf(stderr, "no reachable clients in %s\n", iso2.c_str());
    return 1;
  }
  std::printf("client %llu in %s, default resolver \"%s\"\n\n",
              static_cast<unsigned long long>(client->id), iso2.c_str(),
              client->default_resolver->name().c_str());

  // 2. A Do53 measurement: the exit node resolves a fresh <UUID>.a.com
  //    with its default resolver (guaranteed cache miss).
  const double do53_ms = world.run_flow([&](netsim::NetCtx& net) {
    return measure::do53_direct(
        net, client->site, client->default_resolver,
        dns::study_origin().with_subdomain("quickstart-do53-probe"));
  });
  std::printf("Do53 (default resolver, cache miss): %7.1f ms\n", do53_ms);

  // 3. A DoH measurement against each provider: bootstrap + TCP + TLS 1.3
  //    + HTTPS query, plus a second query reusing the session (DoHR).
  for (std::size_t p = 0; p < world.providers().size(); ++p) {
    auto& provider = world.providers()[p];
    const std::size_t pop = provider.route(
        client->site.position, client->anycast_region, world.rng());
    const auto obs = world.run_flow([&](netsim::NetCtx& net) {
      return measure::doh_direct(net, client->site, client->default_resolver,
                                 world.doh_server(p, pop));
    });
    if (!obs.ok) {
      std::printf("%-10s measurement failed (HTTP %d)\n",
                  provider.name().c_str(), obs.http_status);
      continue;
    }
    std::printf(
        "%-10s via %-16s DoH1 %7.1f ms (dns %.1f + tcp %.1f + tls %.1f + "
        "query %.1f) | DoHR %7.1f ms\n",
        provider.name().c_str(), provider.pops()[pop].city.c_str(),
        obs.first_ms(), obs.dns_ms, obs.connect_ms, obs.tls_ms, obs.query_ms,
        obs.reuse_ms);
  }

  std::printf(
      "\nDoHN averages the handshake over N queries: e.g. DoH10 = "
      "(DoH1 + 9 x DoHR) / 10.\n");
  return 0;
}
