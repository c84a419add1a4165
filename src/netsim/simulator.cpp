#include "netsim/simulator.h"

namespace dohperf::netsim {

void Simulator::schedule_at(SimTime at, std::coroutine_handle<> h) {
  if (at < now_) at = now_;
  queue_.push(at, h);
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::schedule_in(Duration delay, std::coroutine_handle<> h) {
  if (delay < Duration::zero()) delay = Duration::zero();
  queue_.push(now_ + delay, h);
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  queue_.pop().resume();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++n;
  }
  return n;
}

}  // namespace dohperf::netsim
