#include "netsim/event_queue.h"

namespace dohperf::netsim {

void EventQueue::push(SimTime at, std::coroutine_handle<> h) {
  const Event event{at, next_seq_++, h};
  // Hole-based sift-up: shift parents down into the hole instead of
  // swapping, so each displaced event moves exactly once.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(event, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = event;
}

std::coroutine_handle<> EventQueue::pop() {
  const std::coroutine_handle<> h = heap_.front().h;
  const Event tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Hole-based sift-down of the detached tail element from the root.
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], tail)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = tail;
  }
  return h;
}

}  // namespace dohperf::netsim
