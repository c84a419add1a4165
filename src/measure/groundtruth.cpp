#include "measure/groundtruth.h"

#include <stdexcept>
#include <vector>

#include "measure/flows.h"
#include "resolver/stub.h"
#include "stats/summary.h"

namespace dohperf::measure {

namespace {

/// A proxied Do53 measurement of `exit` from the study's client.
Do53ProxyParams proxied_do53(world::WorldModel& world,
                             const proxy::ExitNode& exit) {
  Do53ProxyParams params;
  params.client = world.measurement_client();
  params.super_proxy =
      world.brightdata().nearest_super_proxy(exit.site.position).site;
  params.exit = &exit;
  params.origin = world.origin();
  params.authority = &world.authority();
  return params;
}

}  // namespace

GroundTruthLab::GroundTruthLab(world::WorldModel& world) : world_(world) {}

proxy::ExitNode GroundTruthLab::make_ec2_node(const std::string& iso2) {
  const geo::Country* country = geo::find_country(iso2);
  if (country == nullptr) {
    throw std::invalid_argument("unknown country " + iso2);
  }
  const auto resolvers = world_.isp_resolvers(iso2);
  if (resolvers.empty()) {
    throw std::invalid_argument("country " + iso2 + " not in this world");
  }

  // EC2 machines sit in datacenters: clean access, well-peered transit
  // (no ISP-resolver pathologies), low jitter — the reason the paper's
  // ground-truth deltas are single-digit milliseconds.
  netsim::Rng rng = world_.rng().split("ec2-" + iso2);
  const world::CountryNetProfile profile =
      world::profile_for(*country, world_.config().couple_infra);
  proxy::ExitNode node;
  node.advertised_iso2 = iso2;
  node.true_iso2 = iso2;
  node.anycast_region = country->region;
  node.site.position = geo::destination(country->centroid,
                                        rng.uniform(0.0, 360.0),
                                        rng.uniform(0.0, 60.0));
  node.site.lastmile_ms = 0.8;
  node.site.route_inflation = profile.route_inflation * 0.9;
  node.site.jitter_sigma = 0.03;
  node.site.loss_rate = 0.0005;
  node.prefix = 0xEC200000 + static_cast<geo::NetPrefix>(iso2[0] * 256 +
                                                         iso2[1]);
  node.default_resolver = resolvers.front();
  return node;
}

DohValidation GroundTruthLab::validate_doh(const std::string& iso2,
                                           std::size_t provider_index,
                                           int reps) {
  const proxy::ExitNode node = make_ec2_node(iso2);
  const anycast::Provider& provider = world_.providers()[provider_index];

  // Datacenter vantage points ride clean BGP paths: anycast delivers
  // them to the nearest PoP, and the assignment is stable across the
  // repetitions of both methods.
  const std::size_t pop_index = provider.nearest(node.site.position);
  resolver::DohServer& doh = world_.doh_server(provider_index, pop_index);

  DohProxyParams params;
  params.client = world_.measurement_client();
  params.super_proxy =
      world_.brightdata().nearest_super_proxy(node.site.position).site;
  params.exit = &node;
  params.doh = &doh;
  params.tls = world_.config().tls_version;
  params.origin = world_.origin();

  std::vector<double> est_tdoh, est_tdohr, truth_tdoh, truth_tdohr;

  for (int i = 0; i < reps; ++i) {
    // Estimator path: full proxied measurement.
    const DohProxyObservation proxied = world_.run_flow(
        [&](netsim::NetCtx& net) { return doh_via_proxy(net, params); });
    if (proxied.ok) {
      est_tdoh.push_back(estimate_tdoh_ms(proxied.inputs));
      est_tdohr.push_back(estimate_tdohr_ms(proxied.inputs));
    }
    // Ground truth: direct measurement at the controlled node.
    const DirectObservation direct =
        world_.run_flow([&](netsim::NetCtx& net) {
          return doh_direct(net, node.site, node.default_resolver, doh,
                            world_.config().tls_version, world_.origin());
        });
    if (direct.ok) {
      truth_tdoh.push_back(direct.first_ms());
      truth_tdohr.push_back(direct.reuse_ms);
    }
  }

  DohValidation v;
  v.iso2 = iso2;
  v.estimated_tdoh_ms = stats::median(est_tdoh);
  v.truth_tdoh_ms = stats::median(truth_tdoh);
  v.estimated_tdohr_ms = stats::median(est_tdohr);
  v.truth_tdohr_ms = stats::median(truth_tdohr);
  return v;
}

Do53Validation GroundTruthLab::validate_do53(const std::string& iso2,
                                             int reps) {
  if (proxy::resolves_dns_at_super_proxy(iso2)) {
    throw std::invalid_argument(
        "Do53 validation not applicable in Super Proxy country " + iso2);
  }
  const proxy::ExitNode node = make_ec2_node(iso2);

  std::vector<double> estimated, truth;
  for (int i = 0; i < reps; ++i) {
    const Do53ProxyObservation proxied =
        world_.run_flow([&](netsim::NetCtx& net) {
          return do53_via_proxy(net, proxied_do53(world_, node));
        });
    if (proxied.ok) estimated.push_back(proxied.tun.dns_ms);
    // Names must be fresh per repetition or the resolver cache would
    // serve every repetition after the first.
    const double ms = world_.run_flow([&](netsim::NetCtx& net) {
      return do53_direct(net, node.site, node.default_resolver,
                         resolver::probe_name(net.rng, world_.origin()));
    });
    if (ms >= 0) truth.push_back(ms);
  }

  Do53Validation v;
  v.iso2 = iso2;
  v.estimated_ms = stats::median(estimated);
  v.truth_ms = stats::median(truth);
  return v;
}

NetworkComparison GroundTruthLab::compare_networks(const std::string& iso2,
                                                   int reps) {
  netsim::Rng rng = world_.rng().split("netcmp-" + iso2);
  std::vector<double> brightdata, atlas;

  for (int i = 0; i < reps; ++i) {
    // BrightData: a random real exit node in the country.
    const proxy::ExitNode* exit = world_.brightdata().pick_exit(iso2, rng);
    if (exit != nullptr &&
        !proxy::resolves_dns_at_super_proxy(iso2)) {
      const Do53ProxyObservation obs =
          world_.run_flow([&](netsim::NetCtx& net) {
            return do53_via_proxy(net, proxied_do53(world_, *exit));
          });
      if (obs.ok) brightdata.push_back(obs.tun.dns_ms);
    }
    // Atlas: a random probe in the country.
    const proxy::AtlasProbe* probe = world_.atlas().pick_probe(iso2, rng);
    if (probe != nullptr) {
      const double ms = world_.run_flow([&](netsim::NetCtx& net) {
        return world_.atlas().measure_do53(
            net, *probe, resolver::probe_name(rng, world_.origin()));
      });
      if (ms >= 0) atlas.push_back(ms);
    }
  }

  NetworkComparison cmp;
  cmp.iso2 = iso2;
  cmp.brightdata_median_ms = stats::median(brightdata);
  cmp.atlas_median_ms = stats::median(atlas);
  return cmp;
}

}  // namespace dohperf::measure
