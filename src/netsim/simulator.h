// The discrete-event simulator driving all measurements.
#pragma once

#include <coroutine>
#include <cstdint>

#include "netsim/event_queue.h"
#include "netsim/time.h"

namespace dohperf::netsim {

/// Owns the simulated clock and the event queue.
///
/// Protocol flows are written as coroutines (see task.h) that co_await
/// Simulator::sleep(); the simulator advances time event by event until
/// the queue drains.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Resumes `h` at absolute time `at` (clamped to now for past times).
  void schedule_at(SimTime at, std::coroutine_handle<> h);

  /// Resumes `h` after `delay` (negative delays fire immediately).
  void schedule_in(Duration delay, std::coroutine_handle<> h);

  /// Runs a single event; returns false if the queue was empty.
  bool step();

  /// Runs until no events remain. Returns the number of events processed.
  std::uint64_t run();

  /// Runs until the queue is empty or the clock passes `deadline`.
  std::uint64_t run_until(SimTime deadline);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Largest queue size ever observed after a push — the shard
  /// self-profiling "how deep did the event heap get" number. Purely
  /// observational: tracked on the host side, never read by events.
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_;
  }

  /// Awaitable that suspends the current coroutine for `delay`.
  /// Defined in task.h to keep coroutine machinery out of this header.
  struct SleepAwaitable;
  [[nodiscard]] SleepAwaitable sleep(Duration delay);

 private:
  SimTime now_{};
  EventQueue queue_;
  std::size_t queue_high_water_ = 0;
};

}  // namespace dohperf::netsim
