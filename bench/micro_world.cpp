// Micro-benchmarks: world construction and campaign throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "anycast/catalog.h"
#include "geo/coordinates.h"
#include "measure/flows.h"
#include "resolver/stub.h"
#include "scenario/runner.h"
#include "world/world_model.h"

namespace {

using namespace dohperf;

void BM_WorldBuild(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    world::WorldConfig config;
    config.seed = 42;
    config.client_scale = scale;
    world::WorldModel world(config);
    benchmark::DoNotOptimize(world.exit_count());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(5)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_MeasurementSessionThroughput(benchmark::State& state) {
  scenario::CampaignSpec spec;
  spec.world.client_scale = 0.1;
  spec.world.only_countries = {"SE", "BR", "ZA", "TH", "PL"};
  spec.campaign.atlas_measurements_per_country = 0;
  world::WorldModel world(spec.world);

  std::size_t sessions = 0;
  for (auto _ : state) {
    const scenario::RunResult result = scenario::run(spec, world);
    sessions += result.dataset.clients().size() * 2;  // two runs per client
    benchmark::DoNotOptimize(result.dataset.doh().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sessions));
  state.SetLabel("sessions (5 flows each)");
}
BENCHMARK(BM_MeasurementSessionThroughput)->Unit(benchmark::kMillisecond);

void BM_GroundTruthFlow(benchmark::State& state) {
  world::WorldConfig config;
  config.seed = 7;
  config.only_countries = {"SE"};
  world::WorldModel world(config);
  const proxy::ExitNode* exit =
      world.brightdata().pick_exit("SE", world.rng());
  if (exit == nullptr) {
    state.SkipWithError("no exit nodes");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.run_flow([&](netsim::NetCtx& net) {
      return measure::do53_direct(
          net, exit->site, exit->default_resolver,
          resolver::probe_name(net.rng, world.origin()));
    }));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroundTruthFlow);

// Nearest-PoP selection over the four provider catalogs at seeded random
// client positions: Arg(0) runs anycast::nearest_pops, Arg(1) the full
// geo::distance_km scan it replaced. Both pick the same PoPs.
void BM_NearestPop(benchmark::State& state) {
  const bool reference_scan = state.range(0) == 1;
  const std::vector<std::vector<anycast::Pop>> catalogs = {
      anycast::cloudflare_pops(), anycast::google_pops(),
      anycast::nextdns_pops(), anycast::quad9_pops()};
  netsim::Rng rng(6);
  std::vector<geo::LatLon> clients(256);
  for (geo::LatLon& c : clients) {
    c = {rng.uniform(-60.0, 70.0), rng.uniform(-180.0, 180.0)};
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const geo::LatLon& where = clients[next++ % clients.size()];
    for (const auto& pops : catalogs) {
      if (reference_scan) {
        std::size_t best = 0;
        double best_km = geo::distance_km(where, pops[0].position);
        for (std::size_t i = 1; i < pops.size(); ++i) {
          const double km = geo::distance_km(where, pops[i].position);
          if (km < best_km) {
            best_km = km;
            best = i;
          }
        }
        benchmark::DoNotOptimize(best);
      } else {
        benchmark::DoNotOptimize(anycast::nearest_pops(pops, where, 1));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(catalogs.size()));
  state.SetLabel(reference_scan ? "full distance_km scan" : "nearest_pops");
}
BENCHMARK(BM_NearestPop)->Arg(0)->Arg(1);

}  // namespace
