// ddig — a dig-like lookup tool for the simulated world, with a
// Wireshark-style trace of every message the lookup generated.
//
//   ddig <name> [--country ISO2] [--via do53|doh|dot] [--provider NAME]
//              [--seed N] [--trace 1]
//
// Every flag takes a value; an unknown flag, a flag without a value or a
// seed the number rule rejects exits 2 with a diagnostic naming the flag.
//
// Examples:
//   ddig probe-1.a.com --country BR --via do53 --trace 1
//   ddig probe-2.a.com --country SE --via doh --provider Quad9
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dns/wire.h"
#include "dns/zone.h"
#include "flags.h"
#include "measure/flows.h"
#include "report/format.h"
#include "scenario/spec.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

/// Every message the lookup sent: the hop leaves of its span tree.
void print_trace(const obs::SpanContext& capture) {
  const std::vector<const obs::Span*> hops = capture.hop_view();
  std::printf("\n%zu messages captured:\n", hops.size());
  for (const obs::Span* hop : hops) {
    std::printf(
        "  %9.3f ms  (%7.2f,%8.2f) -> (%7.2f,%8.2f)  %5zu bytes  "
        "(%.2f ms in flight)\n",
        netsim::to_ms(hop->start.time_since_epoch()), hop->from.lat,
        hop->from.lon, hop->to.lat, hop->to.lon, hop->bytes,
        hop->duration_ms());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ddig <name> [--country ISO2] [--via do53|doh|dot] "
                 "[--provider NAME] [--seed N] [--trace 1]\n");
    return 2;
  }
  const std::string name = argv[1];
  tools::Flags flags = {{"--country", "SE"},
                        {"--via", "do53"},
                        {"--provider", "Cloudflare"},
                        {"--seed", "42"},
                        {"--trace", "0"}};
  if (const std::string error = tools::read_flags(argc, argv, 2, flags);
      !error.empty()) {
    std::fprintf(stderr, "ddig: %s\n", error.c_str());
    return 2;
  }
  const std::string& iso2 = *flags["--country"];
  const std::string& via = *flags["--via"];
  const std::string& provider_name = *flags["--provider"];
  const bool want_trace = *flags["--trace"] == "1";

  scenario::CampaignSpec spec;
  const std::optional<std::uint64_t> seed =
      report::read_number<std::uint64_t>(*flags["--seed"]);
  if (!seed) {
    std::fprintf(stderr,
                 "ddig: --seed: expected an integer from 0 to "
                 "18446744073709551615, got \"%s\"\n",
                 flags["--seed"]->c_str());
    return 2;
  }
  spec.world.seed = *seed;
  std::string error;
  if (!scenario::set_country(spec, "--country", iso2, &error)) {
    std::fprintf(stderr, "ddig: %s\n", error.c_str());
    return 2;
  }
  world::WorldModel world(spec.world);

  const proxy::ExitNode* client =
      world.brightdata().pick_exit(iso2, world.rng());
  if (client == nullptr) {
    std::fprintf(stderr, "no clients in %s\n", iso2.c_str());
    return 1;
  }

  dns::DomainName target;
  try {
    target = dns::DomainName::parse(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad name: %s\n", e.what());
    return 2;
  }
  if (!target.is_subdomain_of(dns::study_origin())) {
    std::fprintf(stderr,
                 "note: %s is outside the simulated zone %s — expect "
                 "REFUSED\n",
                 name.c_str(), dns::study_origin().to_string().c_str());
  }

  obs::SpanContext capture;
  obs::SpanContext* const spans = want_trace ? &capture : nullptr;

  if (via == "do53") {
    const double ms = world.run_flow([&](netsim::NetCtx& net) {
      net.spans = spans;
      return measure::do53_direct(net, client->site,
                                  client->default_resolver, target);
    });
    if (ms < 0) {
      std::printf(";; resolution FAILED (non-NOERROR rcode)\n");
    } else {
      std::printf(";; %s via %s (Do53): %.1f ms\n", name.c_str(),
                  client->default_resolver->name().c_str(), ms);
    }
  } else if (via == "doh" || via == "dot") {
    std::size_t provider_index = world.providers().size();
    for (std::size_t p = 0; p < world.providers().size(); ++p) {
      if (world.providers()[p].name() == provider_name) provider_index = p;
    }
    if (provider_index == world.providers().size()) {
      std::fprintf(stderr, "unknown provider %s\n", provider_name.c_str());
      return 2;
    }
    auto& provider = world.providers()[provider_index];
    const std::size_t pop = provider.route(
        client->site.position, client->anycast_region, world.rng());
    auto& server = world.doh_server(provider_index, pop);
    const bool doh = via == "doh";
    const auto flow = doh ? &measure::doh_direct : &measure::dot_direct;
    const auto obs = world.run_flow([&](netsim::NetCtx& net) {
      net.spans = spans;
      return flow(net, client->site, client->default_resolver, server);
    });
    std::printf(";; %s via %s@%s (%s): first %.1f ms, reuse %.1f ms\n",
                name.c_str(), provider.name().c_str(),
                provider.pops()[pop].city.c_str(), doh ? "DoH" : "DoT",
                obs.first_ms(), obs.reuse_ms);
  } else {
    std::fprintf(stderr, "unknown transport %s\n", via.c_str());
    return 2;
  }

  if (want_trace) print_trace(capture);
  return 0;
}
