#include "obs/attribution.h"

#include <algorithm>

namespace dohperf::obs {

std::string_view phase_name(Phase phase) {
  switch (phase) {
    case Phase::kDnsCacheHit: return "dns_cache_hit";
    case Phase::kDnsCacheMiss: return "dns_cache_miss";
    case Phase::kTcpHandshake: return "tcp_handshake";
    case Phase::kTlsHandshake: return "tls_handshake";
    case Phase::kQuicHandshake: return "quic_handshake";
    case Phase::kTlsResume: return "tls_resume";
    case Phase::kQuicResume: return "quic_resume";
    case Phase::kTunnelConnect: return "tunnel_connect";
    case Phase::kRetryBackoff: return "retry_backoff";
    case Phase::kBrownout: return "brownout";
    case Phase::kServerProcessing: return "server_processing";
    case Phase::kTransfer: return "transfer";
  }
  return "unknown";
}

bool parse_phase(std::string_view name, Phase& out) {
  for (const Phase phase : kPhases) {
    if (phase_name(phase) == name) {
      out = phase;
      return true;
    }
  }
  return false;
}

void FlowAttribution::begin(netsim::SimTime now) {
  frames_.clear();
  phase_us_.fill(0);
  total_us_ = 0;
  next_token_ = 1;
  last_ = now;
  active_ = true;
  frames_.push_back(Frame{Phase::kTransfer, /*token=*/0, /*self_us=*/0});
}

void FlowAttribution::sync(netsim::SimTime now) {
  const std::int64_t elapsed = (now - last_).count();
  if (elapsed > 0) {
    frames_.back().self_us += static_cast<std::uint64_t>(elapsed);
    total_us_ += static_cast<std::uint64_t>(elapsed);
  }
  last_ = now;
}

std::uint64_t FlowAttribution::push(Phase phase, netsim::SimTime now) {
  if (!active_) return 0;
  sync(now);
  const std::uint64_t token = next_token_++;
  frames_.push_back(Frame{phase, token, 0});
  return token;
}

void FlowAttribution::pop(std::uint64_t token, netsim::SimTime now) {
  if (!active_ || token == 0) return;
  sync(now);
  // Search from the top: pops are LIFO for sequential flows and nearly
  // so for interleaved ones.
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->token != token) continue;
    phase_us_[static_cast<std::size_t>(it->phase)] += it->self_us;
    frames_.erase(std::next(it).base());
    return;
  }
}

void FlowAttribution::relabel_open(Phase from, Phase to) {
  if (!active_) return;
  for (Frame& frame : frames_) {
    if (frame.phase == from && frame.token != 0) frame.phase = to;
  }
}

void FlowAttribution::shift(std::uint64_t token, std::uint64_t us, Phase to,
                            netsim::SimTime now) {
  if (!active_ || token == 0) return;
  sync(now);
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->token != token) continue;
    const std::uint64_t moved = std::min(us, it->self_us);
    it->self_us -= moved;
    phase_us_[static_cast<std::size_t>(to)] += moved;
    return;
  }
}

void FlowAttribution::end(netsim::SimTime now) {
  if (!active_) return;
  sync(now);
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    phase_us_[static_cast<std::size_t>(it->phase)] += it->self_us;
  }
  frames_.clear();
  active_ = false;
#ifndef NDEBUG
  std::uint64_t sum = 0;
  for (const std::uint64_t us : phase_us_) sum += us;
  assert(sum == total_us_ && "phase partition must cover the flow exactly");
#endif
}

void AttributionEntry::merge(const AttributionEntry& other) {
  flows += other.flows;
  total_us += other.total_us;
  total_sketch.merge(other.total_sketch);
  for (int i = 0; i < kPhaseCount; ++i) {
    phases[static_cast<std::size_t>(i)].us +=
        other.phases[static_cast<std::size_t>(i)].us;
    phases[static_cast<std::size_t>(i)].sketch.merge(
        other.phases[static_cast<std::size_t>(i)].sketch);
  }
}

void AttributionLedger::record(std::string_view provider,
                               std::string_view country,
                               std::string_view transport,
                               const FlowAttribution& flow) {
  AttributionEntry& entry = entries_[{provider, country, transport}];
  ++entry.flows;
  entry.total_us += flow.total_us();
  entry.total_sketch.record(static_cast<double>(flow.total_us()) / 1000.0);
  for (int i = 0; i < kPhaseCount; ++i) {
    const std::uint64_t us = flow.phases()[static_cast<std::size_t>(i)];
    if (us == 0) continue;
    PhaseAggregate& agg = entry.phases[static_cast<std::size_t>(i)];
    agg.us += us;
    agg.sketch.record(static_cast<double>(us) / 1000.0);
  }
}

void AttributionLedger::merge(const AttributionLedger& other) {
  entries_.merge(other.entries_,
                 [](AttributionEntry& mine, const AttributionEntry& theirs) {
                   mine.merge(theirs);
                 });
}

}  // namespace dohperf::obs
