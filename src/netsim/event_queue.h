// Time-ordered event queue for the discrete-event simulator.
//
// Implemented as a flat binary min-heap of 24-byte events. Every event
// the simulator schedules is the resumption of a suspended coroutine
// (see Simulator::sleep), so an event stores just the coroutine handle:
// push() and pop() move three words and never allocate once the slot
// array has grown to the event population, and sifting runs no callback
// machinery.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "netsim/time.h"

namespace dohperf::netsim {

/// A min-heap of (time, sequence, coroutine). Events at equal times fire
/// in insertion order, making simulations fully deterministic.
class EventQueue {
 public:
  /// Enqueues `h` to be resumed at absolute time `at`.
  void push(SimTime at, std::coroutine_handle<> h);

  /// True if no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const { return heap_.front().at; }

  /// Removes the earliest event and returns its coroutine, for the caller
  /// to resume. Requires !empty().
  [[nodiscard]] std::coroutine_handle<> pop();

  /// Pre-sizes the slot array for an expected event population.
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };
  static_assert(sizeof(Event) == 24);

  /// True if `a` must fire strictly before `b`.
  static bool before(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dohperf::netsim
