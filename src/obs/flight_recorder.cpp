#include "obs/flight_recorder.h"

namespace dohperf::obs {

std::string anomaly_reasons(std::uint32_t mask) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += '|';
    out += name;
  };
  if ((mask & kAnomalySlowFlow) != 0) add("slow_flow");
  if ((mask & kAnomalyRetryGiveUp) != 0) add("retry_give_up");
  if ((mask & kAnomalyFallback) != 0) add("fallback");
  if ((mask & kAnomalyBrownout) != 0) add("brownout");
  if (out.empty()) out = "none";
  return out;
}

void FlightRecorder::examine_flow(std::uint64_t slot,
                                  std::uint32_t flow_index,
                                  const std::string& session,
                                  const std::string& flow,
                                  double duration_ms,
                                  const MetricCounters& before,
                                  const MetricCounters& after) {
  if (!policy_.enabled) return;
  ++counts_.flows;

  std::uint32_t reasons = 0;
  if (after.retry_timeouts > before.retry_timeouts) {
    reasons |= kAnomalyRetryGiveUp;
    ++counts_.give_up;
  }
  if (after.fallbacks > before.fallbacks) {
    reasons |= kAnomalyFallback;
    ++counts_.fallback;
  }
  if (after.brownout_delays > before.brownout_delays) {
    reasons |= kAnomalyBrownout;
    ++counts_.brownout;
  }
  if (duration_ms >= policy_.slow_flow_ms) {
    reasons |= kAnomalySlowFlow;
    ++counts_.slow;
  }

  if (reasons == 0) return;
  ++counts_.anomalous;

  AnomalyRecord rec;
  rec.slot = slot;
  rec.flow_index = flow_index;
  rec.session = session;
  rec.flow = flow;
  rec.reasons = reasons;
  rec.duration_ms = duration_ms;
  retained_.insert_or_assign(FlowKey{slot, flow_index}, std::move(rec));
  if (retained_.size() > policy_.ring_capacity) {
    retained_.erase(retained_.begin());  // canonical-oldest
    ++counts_.evicted;
  }
}

void FlightRecorder::merge(const FlightRecorder& other) {
  for (const auto& [key, rec] : other.retained_) {
    retained_.insert_or_assign(key, rec);
  }
  counts_.flows += other.counts_.flows;
  counts_.anomalous += other.counts_.anomalous;
  counts_.slow += other.counts_.slow;
  counts_.give_up += other.counts_.give_up;
  counts_.fallback += other.counts_.fallback;
  counts_.brownout += other.counts_.brownout;
  counts_.evicted += other.counts_.evicted;
}

void FlightRecorder::finalize() {
  while (retained_.size() > policy_.ring_capacity) {
    retained_.erase(retained_.begin());
    ++counts_.evicted;
  }
}

void FlightRecorder::attach_spans(const FlowKey& key,
                                  std::vector<Span> spans) {
  const auto it = retained_.find(key);
  if (it != retained_.end()) it->second.spans = std::move(spans);
}

}  // namespace dohperf::obs
