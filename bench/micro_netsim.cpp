// Micro-benchmarks: simulator core (event queue, coroutine round trips,
// latency sampling, RNG).
#include <benchmark/benchmark.h>

#include <coroutine>

#include "netsim/event_queue.h"
#include "netsim/netctx.h"
#include "netsim/simulator.h"
#include "netsim/task.h"

namespace {

using namespace dohperf::netsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Resuming the no-op coroutine costs a call and does nothing, which
  // isolates the queue.
  const std::coroutine_handle<> noop = std::noop_coroutine();
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(SimTime{Duration(static_cast<std::int64_t>((i * 7919) % n))},
                 noop);
    }
    while (!queue.empty()) queue.pop().resume();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  const std::coroutine_handle<> noop = std::noop_coroutine();
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(from_ms(static_cast<double>(i % 37)), noop);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

Task<void> ping_pong(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim.sleep(from_ms(0.1));
  }
}

void BM_CoroutineHops(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    auto task = ping_pong(sim, hops);
    sim.run();
    task.result();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineHops)->Arg(10)->Arg(100);

// The per-message delay sample once a Path has computed its direction's
// term.
void BM_LatencySample(benchmark::State& state) {
  Rng rng(5);
  const Site a{{40.7, -74.0}, 5.0, 1.5, 0.1};
  const Site b{{51.5, -0.1}, 2.0, 1.2, 0.1};
  const OneWayTerm term = one_way_term(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_way(term, 256, rng));
  }
}
BENCHMARK(BM_LatencySample);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_median(10.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_RngSplit(benchmark::State& state) {
  Rng rng(7);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.split(tag++));
  }
}
BENCHMARK(BM_RngSplit);

}  // namespace
