// Always-on anomaly flight recorder.
//
// Every measurement flow is *examined* when it closes: the owner hands
// the recorder the flow's sim-time duration plus before/after snapshots
// of the session's own counters, and a deterministic predicate decides
// whether the flow is *retained* or discarded. The predicate consults
// only the flow itself — counter deltas across the flow (retry give-up,
// policy fallback, brownout-inflated processing) and the flow's
// sim-time duration against a threshold — never the host clock, RNG, or
// other flows, so the set of retained flows is a pure function of the
// campaign inputs.
//
// Examination is deliberately span-free: recording a span tree for
// every flow costs more than the whole predicate, and virtually all
// trees are discarded. Instead the campaign runs a *replay pass* after
// the shards join: it re-runs the sessions that own retained flows on a
// fresh replica, each retained flow records its spans, and at its exit
// attaches its epoch-rebased tree to its record (attach_spans). Sessions
// are keyed by what they measure and are epoch-relative, so the
// replayed tree is bit-identical to the one the flow would have
// recorded the first time — the same determinism contract that makes
// the dataset independent of the shard count.
//
// Retention keeps the `ring_capacity` *latest* anomalies in canonical
// (slot, flow_index) order — the campaign-wide session/flow numbering —
// not in completion order, which interleaves arbitrarily across the
// sessions batched on one simulator and differs between shard layouts.
// Each shard therefore retains its own canonical-latest K; merging the
// shard rings and re-truncating to the canonical-latest K reproduces
// exactly the serial run's ring: every member of the global latest-K
// has fewer than K canonical successors globally, hence fewer than K in
// its own shard, so no shard ring can have evicted it.
//
// Replayed span times are rebased to the flow's session epoch
// (obs::rebase_to_epoch) before they are attached, both so dumps are
// shard-layout-independent and so anomaly traces open in Perfetto
// starting near ts=0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace dohperf::obs {

/// Reasons an anomaly predicate fired (bitmask; a flow can trip several).
inline constexpr std::uint32_t kAnomalySlowFlow = 1u << 0;
inline constexpr std::uint32_t kAnomalyRetryGiveUp = 1u << 1;
inline constexpr std::uint32_t kAnomalyFallback = 1u << 2;
inline constexpr std::uint32_t kAnomalyBrownout = 1u << 3;

/// Human-readable "slow_flow|retry_give_up|..." form of a reason mask.
[[nodiscard]] std::string anomaly_reasons(std::uint32_t mask);

struct AnomalyPolicy {
  bool enabled = true;
  /// Flow duration at/above which a flow is anomalous on its own.
  double slow_flow_ms = 1500.0;
  /// Retained-anomaly capacity per shard and for the merged recorder.
  std::size_t ring_capacity = 64;
};

/// Campaign-wide canonical position of a flow: slot orders sessions,
/// flow_index orders flows within a session (providers in enumeration
/// order, then Do53).
using FlowKey = std::pair<std::uint64_t, std::uint32_t>;

/// One retained anomalous flow.
struct AnomalyRecord {
  std::uint64_t slot = 0;
  std::uint32_t flow_index = 0;
  std::string session;  ///< Session label, e.g. "shard-exit-12-run-0".
  std::string flow;     ///< Flow label, e.g. "doh:Cloudflare".
  std::uint32_t reasons = 0;
  double duration_ms = 0.0;
  /// Epoch-rebased span tree, filled by the replay pass (empty until
  /// attach_spans).
  std::vector<Span> spans;

  friend bool operator==(const AnomalyRecord&, const AnomalyRecord&) = default;
};

/// Aggregate examination statistics (kept even for discarded flows).
struct AnomalyCounts {
  std::uint64_t flows = 0;      ///< Flows examined.
  std::uint64_t anomalous = 0;  ///< Flows whose predicate fired.
  std::uint64_t slow = 0;
  std::uint64_t give_up = 0;
  std::uint64_t fallback = 0;
  std::uint64_t brownout = 0;
  std::uint64_t evicted = 0;  ///< Anomalies evicted over capacity.

  friend bool operator==(const AnomalyCounts&, const AnomalyCounts&) = default;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  explicit FlightRecorder(AnomalyPolicy policy) : policy_(policy) {}

  [[nodiscard]] const AnomalyPolicy& policy() const { return policy_; }
  [[nodiscard]] bool enabled() const { return policy_.enabled; }

  /// Evaluates one finished flow: `before`/`after` are the session's own
  /// counter snapshots around the flow (session-local, so concurrent
  /// sessions on the same shard cannot leak deltas into each other), and
  /// `duration_ms` is the flow's sim-time cost as measured by the owner
  /// around the flow (identical to the flow root span's duration, but
  /// available without recording any spans). A record with an empty
  /// span tree is retained when the predicate fires — the replay pass
  /// fills trees in afterwards — and the canonical-oldest record is
  /// evicted over capacity.
  void examine_flow(std::uint64_t slot, std::uint32_t flow_index,
                    const std::string& session, const std::string& flow,
                    double duration_ms, const MetricCounters& before,
                    const MetricCounters& after);

  /// Retained anomalies in canonical (slot, flow_index) order.
  [[nodiscard]] const std::map<FlowKey, AnomalyRecord>& retained() const {
    return retained_;
  }
  [[nodiscard]] const AnomalyCounts& counts() const { return counts_; }

  /// Folds another recorder's retained records and counts into this one
  /// *without* re-truncating — callers merge all shards first, then call
  /// finalize() once so the global canonical-latest K survives intact.
  void merge(const FlightRecorder& other);

  /// Evicts canonical-oldest records down to ring_capacity. Call after
  /// the last merge.
  void finalize();

  /// Attaches a replayed span tree to a retained record (no-op for
  /// unknown keys).
  void attach_spans(const FlowKey& key, std::vector<Span> spans);

  friend bool operator==(const FlightRecorder& a, const FlightRecorder& b) {
    return a.retained_ == b.retained_ && a.counts_ == b.counts_;
  }

 private:
  AnomalyPolicy policy_;
  std::map<FlowKey, AnomalyRecord> retained_;
  AnomalyCounts counts_;
};

}  // namespace dohperf::obs
