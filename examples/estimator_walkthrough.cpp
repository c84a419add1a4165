// Estimator walkthrough: run one proxied DoH measurement and show every
// quantity in the paper's Figure 2 / Equations 1-8 derivation — what the
// measurement client saw, what the Super Proxy headers said, and how the
// closed-form estimate compares with the simulator's hidden truth.
//
//   ./estimator_walkthrough [ISO2]   (default: BR)
#include <cstdio>
#include <string>

#include "measure/estimator.h"
#include "measure/flows.h"
#include "scenario/spec.h"
#include "world/world_model.h"

using namespace dohperf;

int main(int argc, char** argv) {
  const std::string iso2 = argc > 1 ? argv[1] : "BR";

  scenario::CampaignSpec spec;
  spec.world.seed = 4;
  std::string error;
  if (!scenario::set_override(spec, "ISO2", "world.only_countries", iso2,
                              &error)) {
    std::fprintf(stderr, "estimator_walkthrough: %s\n", error.c_str());
    return 2;
  }
  world::WorldModel world(spec.world);

  const proxy::ExitNode* exit =
      world.brightdata().pick_exit(iso2, world.rng());
  if (exit == nullptr) {
    std::fprintf(stderr, "no clients in %s\n", iso2.c_str());
    return 1;
  }

  auto& provider = world.providers()[0];  // Cloudflare
  const std::size_t pop =
      provider.route(exit->site.position, exit->anycast_region, world.rng());

  measure::DohProxyParams params;
  params.client = world.measurement_client();
  params.super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;
  params.exit = exit;
  params.doh = &world.doh_server(0, pop);
  params.origin = world.origin();

  const measure::DohProxyObservation obs =
      world.run_flow([&](netsim::NetCtx& net) {
        return measure::doh_via_proxy(net, params);
      });
  if (!obs.ok) {
    std::fprintf(stderr, "measurement failed\n");
    return 1;
  }

  const auto& in = obs.inputs;
  std::printf(
      "Proxied DoH measurement: client (Illinois) -> Super Proxy -> exit "
      "node (%s) -> %s PoP \"%s\"\n\n",
      iso2.c_str(), provider.name().c_str(),
      provider.pops()[pop].city.c_str());

  std::printf("Client-side timestamps (Figure 2):\n");
  std::printf("  T_A  CONNECT sent            %10.3f ms\n", in.stamps.t_a);
  std::printf("  T_B  \"200 OK\" received       %10.3f ms\n", in.stamps.t_b);
  std::printf("  T_C  ClientHello sent        %10.3f ms\n", in.stamps.t_c);
  std::printf("  T_D  DoH response received   %10.3f ms\n\n",
              in.stamps.t_d);

  std::printf("Super Proxy headers:\n");
  std::printf("  x-luminati-tun-timeline: dns=%.3f connect=%.3f\n",
              in.tun.dns_ms, in.tun.connect_ms);
  std::printf("  x-luminati-timeline total (t_BrightData): %.3f ms\n\n",
              in.brightdata_ms);

  const double rtt = measure::estimate_rtt_ms(in);
  const double tdoh = measure::estimate_tdoh_ms(in);
  const double tdohr = measure::estimate_tdohr_ms(in);
  std::printf("Equation 6: RTT   = (T_B-T_A) - (dns+connect) - t_BD "
              "= %.1f ms\n", rtt);
  std::printf("Equation 7: t_DoH = (T_D-T_C) - 2(T_B-T_A) + 3(dns+connect) "
              "+ 2 t_BD = %.1f ms\n", tdoh);
  std::printf("Equation 8: t_DoHR (assumes t11+t12 == t5+t6) = %.1f ms\n\n",
              tdohr);

  std::printf("Simulator ground truth (hidden from the estimator):\n");
  std::printf("  t3+t4   bootstrap DNS        %8.1f ms\n", obs.true_dns_ms);
  std::printf("  t5+t6   TCP handshake        %8.1f ms\n",
              obs.true_connect_ms);
  std::printf("  t11+t12 TLS exchange         %8.1f ms\n", obs.true_tls_ms);
  std::printf("  t17..20 query leg            %8.1f ms\n",
              obs.true_query_ms);
  std::printf("  true t_DoH (Equation 1)      %8.1f ms\n\n",
              obs.true_tdoh_ms());

  std::printf("estimator error: %.2f ms (%.2f%%)\n",
              tdoh - obs.true_tdoh_ms(),
              100.0 * (tdoh - obs.true_tdoh_ms()) / obs.true_tdoh_ms());
  std::printf(
      "sources of error: per-hop jitter breaks assumption 1 (stable "
      "tunnel RTT), and the %.2f ms per-message forwarding cost at the "
      "proxy boxes breaks assumption 2.\n",
      measure::kSuperProxyForwardMs + proxy::kExitForwardingMs);
  return 0;
}
