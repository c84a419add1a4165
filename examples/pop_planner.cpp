// PoP planner: the paper's Section 7 "what if" — how much would investing
// in a new point of presence improve DoH resolution times for a region's
// clients?
//
//   ./pop_planner [ISO2] [CityName...]   (default: NG "Accra")
//
// Builds a Google-profile deployment (the sparsest catalog in the study),
// measures DoH1/DoHR medians for clients of the target country, then adds
// a hypothetical PoP in the named city and re-measures.
#include <cstdio>
#include <string>
#include <vector>

#include "anycast/provider.h"
#include "measure/flows.h"
#include "report/table.h"
#include "scenario/spec.h"
#include "stats/summary.h"
#include "world/sites.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

/// Medians of direct DoH measurements for `n` clients of `iso2` against a
/// fleet described by (provider, backends).
struct FleetResult {
  double doh1_median;
  double dohr_median;
  double distance_median_miles;
};

FleetResult measure_fleet(world::WorldModel& world, const std::string& iso2,
                          const anycast::Provider& provider,
                          std::vector<resolver::DohServer>& servers,
                          int n_clients) {
  std::vector<double> doh1, dohr, distance;
  netsim::Rng rng = world.rng().split("pop-planner-" + iso2);
  for (int i = 0; i < n_clients; ++i) {
    const proxy::ExitNode* client = world.brightdata().pick_exit(iso2, rng);
    if (client == nullptr) break;
    const std::size_t pop =
        provider.route(client->site.position, client->anycast_region, rng);
    const auto obs = world.run_flow([&](netsim::NetCtx& net) {
      return measure::doh_direct(net, client->site, client->default_resolver,
                                 servers[pop], transport::TlsVersion::kTls13,
                                 world.origin());
    });
    if (!obs.ok) continue;
    doh1.push_back(obs.first_ms());
    dohr.push_back(obs.reuse_ms);
    distance.push_back(geo::distance_miles(
        client->site.position, provider.pops()[pop].position));
  }
  return {stats::median(doh1), stats::median(dohr),
          stats::median(distance)};
}

/// Builds one DohServer per PoP of `provider`, backed by the world's
/// authoritative server.
std::vector<resolver::DohServer> build_fleet(
    world::WorldModel& world, const anycast::Provider& provider) {
  std::vector<resolver::DohServer> servers;
  servers.reserve(provider.pops().size());
  std::uint32_t address = 900000;
  for (std::size_t i = 0; i < provider.pops().size(); ++i) {
    const geo::Country* host =
        geo::find_country(provider.pops()[i].country_iso2);
    const auto profile = world::profile_for(*host);
    resolver::RecursiveResolver backend(
        "planner@" + provider.pops()[i].city,
        provider.backend_site(i, profile.route_inflation), address++,
        &world.authority(),
        netsim::from_ms(provider.config().processing_ms));
    servers.emplace_back(provider.config().doh_hostname,
                         provider.frontend_site(i, profile.route_inflation),
                         std::move(backend));
  }
  return servers;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string iso2 = argc > 1 ? argv[1] : "NG";
  const std::string new_city = argc > 2 ? argv[2] : "Accra";

  const geo::City* city = geo::find_city(new_city);
  if (city == nullptr) {
    std::fprintf(stderr, "unknown city \"%s\"\n", new_city.c_str());
    return 1;
  }

  scenario::CampaignSpec spec;
  spec.world.seed = 3;
  spec.world.client_scale = 1.0;
  std::string error;
  if (!scenario::set_override(spec, "ISO2", "world.only_countries", iso2,
                              &error)) {
    std::fprintf(stderr, "pop_planner: %s\n", error.c_str());
    return 2;
  }
  world::WorldModel world(spec.world);

  constexpr int kClients = 60;

  // Baseline: Google's 26-PoP deployment.
  anycast::Provider before(anycast::google_config(),
                           anycast::google_pops());
  auto before_fleet = build_fleet(world, before);
  const FleetResult base =
      measure_fleet(world, iso2, before, before_fleet, kClients);

  // Hypothetical: the same deployment plus one PoP in the named city.
  auto pops = anycast::google_pops();
  pops.push_back(anycast::make_pop(*city));
  anycast::Provider after(anycast::google_config(), std::move(pops));
  auto after_fleet = build_fleet(world, after);
  const FleetResult planned =
      measure_fleet(world, iso2, after, after_fleet, kClients);

  report::Table table("Adding a Google-profile PoP in " + new_city +
                      " for clients in " + iso2);
  table.header({"Metric", "before", "after", "change"});
  auto delta = [](double b, double a) {
    return (a - b >= 0 ? "+" : "") + report::fmt(a - b, 0);
  };
  table.row({"DoH1 median (ms)", report::fmt(base.doh1_median, 0),
             report::fmt(planned.doh1_median, 0),
             delta(base.doh1_median, planned.doh1_median)});
  table.row({"DoHR median (ms)", report::fmt(base.dohr_median, 0),
             report::fmt(planned.dohr_median, 0),
             delta(base.dohr_median, planned.dohr_median)});
  table.row({"PoP distance median (mi)",
             report::fmt(base.distance_median_miles, 0),
             report::fmt(planned.distance_median_miles, 0),
             delta(base.distance_median_miles,
                   planned.distance_median_miles)});
  table.caption(
      "Paper Section 7: \"One potential area of improvement may be to "
      "begin investing in small PoPs in areas with little development\" — "
      "but note the upstream leg to the authoritative server does not "
      "shrink, so the DoHR gain is bounded.");
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
