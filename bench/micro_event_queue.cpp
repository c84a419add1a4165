// Micro-benchmarks for the EventQueue flat binary heap, isolating the
// patterns the simulator produces: bulk build-then-drain, steady-state
// churn (one pop triggers one push, the shape of a sleep-heavy coroutine
// workload), and same-timestamp FIFO bursts (batched session launches).
// Every event resumes one long-lived ticker coroutine, so the numbers are
// the queue plus a real coroutine resume, with no frame allocation.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <exception>

#include "netsim/event_queue.h"
#include "netsim/time.h"

namespace {

using namespace dohperf::netsim;

SimTime at_ms(std::int64_t ms) { return SimTime{} + from_ms(double(ms)); }

// A coroutine that counts its resumptions and suspends again, forever.
struct Ticker {
  struct promise_type {
    Ticker get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

Ticker tick(std::uint64_t& count) {
  for (;;) {
    ++count;
    co_await std::suspend_always{};
  }
}

// Build a heap of n events in pseudo-random time order, then drain it.
void BM_BuildThenDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t fired = 0;
  const auto ticker = tick(fired).handle;
  for (auto _ : state) {
    EventQueue queue;
    queue.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(at_ms(static_cast<std::int64_t>((i * 7919) % n)),
                 ticker);
    }
    while (!queue.empty()) queue.pop().resume();
  }
  ticker.destroy();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildThenDrain)->Arg(1000)->Arg(10000)->Arg(100000);

// Steady state: a resident population of `n` events where every pop
// schedules a successor — the dominant pattern once a campaign batch is
// in flight. An event is three words, so this does zero allocations per
// event.
void BM_SteadyStateChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t fired = 0;
  const auto ticker = tick(fired).handle;
  EventQueue queue;
  queue.reserve(n + 1);
  std::int64_t clock = 0;
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(at_ms(static_cast<std::int64_t>(i)), ticker);
  }
  for (auto _ : state) {
    const SimTime now = queue.next_time();
    queue.pop().resume();
    clock += 1 + (clock * 2654435761u) % 23;
    queue.push(now + from_ms(double(clock % 37) + 1.0), ticker);
  }
  ticker.destroy();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateChurn)->Arg(256)->Arg(4096);

// Bursts of same-timestamp events (a drained batch relaunching): ordering
// falls back to the insertion sequence number, the heap's worst case for
// comparison locality.
void BM_SameTimeBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t order_check = 0;
  const auto ticker = tick(order_check).handle;
  for (auto _ : state) {
    EventQueue queue;
    queue.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(at_ms(5), ticker);
    }
    while (!queue.empty()) queue.pop().resume();
  }
  ticker.destroy();
  benchmark::DoNotOptimize(order_check);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SameTimeBurst)->Arg(1000)->Arg(10000);

}  // namespace
