// Phase-exact latency attribution.
//
// Every flow's end-to-end latency is decomposed into a *closed, additive*
// set of phase components: at any sim-time instant exactly one phase owns
// the clock, so `sum(phases) == total_us` holds per flow by construction
// (and is asserted in debug builds). Unlike spans — which overlap, nest,
// and cost strings — attribution is pure integer bookkeeping on the hot
// path: a small frame stack of microsecond counters per flow, folded into
// per-(provider, country, transport) sums and log-bucket sketches. The
// same contract as the FlightRecorder and the metric registry applies:
// integer-only arithmetic and merges matched by name keep the merged
// ledger bit-identical for every DOHPERF_THREADS value.
//
// The frame model: a flow opens with one base frame (kTransfer). Layers
// push a frame when they enter a phase and pop it (by token) when they
// leave; elapsed sim time always accrues to the *innermost* (last) live
// frame. Tokens — not strict LIFO — matter because page loads run their
// per-domain subflows concurrently on one context, so pops arrive out of
// stack order; folding the identified frame wherever it sits keeps the
// partition exact regardless of interleaving. Two refinements cover the
// cases a push/pop pair cannot: `relabel_open` re-labels live provisional
// frames once the outcome is known (a resolver lookup starts as a cache
// miss and is relabeled a hit), and `shift` moves already-accrued
// microseconds between phases (brownout inflation is carved out of server
// processing after the slowdown is applied).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "netsim/time.h"
#include "obs/metrics.h"
#include "obs/tracks.h"

namespace dohperf::obs {

/// The closed phase taxonomy. Order is the canonical export order.
enum class Phase : unsigned char {
  kDnsCacheHit = 0,   ///< Resolution path that ended in a cache hit.
  kDnsCacheMiss,      ///< Resolution path that recursed (cache miss).
  kTcpHandshake,      ///< TCP SYN/SYN-ACK exchange.
  kTlsHandshake,      ///< Full TLS handshake (1.2 or 1.3).
  kQuicHandshake,     ///< QUIC combined transport+TLS handshake.
  kTlsResume,         ///< Abbreviated TLS handshake via session ticket.
  kQuicResume,        ///< QUIC 0-RTT resumption (zero wire time by design).
  kTunnelConnect,     ///< Proxy CONNECT choreography (SP + exit legs).
  kRetryBackoff,      ///< Waiting on retransmit timers.
  kBrownout,          ///< Processing inflation from brownout episodes.
  kServerProcessing,  ///< Resolver/authority/origin compute time.
  kTransfer,          ///< Everything else on the wire (the base phase).
};

inline constexpr int kPhaseCount = 12;

/// All phases in canonical (export) order.
inline constexpr std::array<Phase, kPhaseCount> kPhases = {
    Phase::kDnsCacheHit,   Phase::kDnsCacheMiss, Phase::kTcpHandshake,
    Phase::kTlsHandshake,  Phase::kQuicHandshake, Phase::kTlsResume,
    Phase::kQuicResume,    Phase::kTunnelConnect, Phase::kRetryBackoff,
    Phase::kBrownout,      Phase::kServerProcessing, Phase::kTransfer,
};

/// Stable snake_case name of a phase (CSV / OpenMetrics label).
[[nodiscard]] std::string_view phase_name(Phase phase);

/// Parses a phase_name() string; returns false on unknown names.
[[nodiscard]] bool parse_phase(std::string_view name, Phase& out);

/// Integer microseconds per phase, indexed by Phase.
using PhaseMicros = std::array<std::uint64_t, kPhaseCount>;

/// One flow's live decomposition. All mutation is O(live frames), which
/// in practice is 1-3; no allocation after the first flow reuses the
/// frame vector's capacity.
class FlowAttribution {
 public:
  /// Starts a flow at `now` with the base kTransfer frame.
  void begin(netsim::SimTime now);

  [[nodiscard]] bool active() const { return active_; }

  /// Enters `phase`; returns a token identifying the frame (never 0).
  std::uint64_t push(Phase phase, netsim::SimTime now);

  /// Leaves the frame identified by `token`, folding its accrued time
  /// into the phase totals. Unknown tokens (and 0) are no-ops.
  void pop(std::uint64_t token, netsim::SimTime now);

  /// Re-labels every *live* frame currently in phase `from` to `to`.
  /// Already-folded time is untouched, so a provisional classification
  /// can be corrected exactly once the outcome is known.
  void relabel_open(Phase from, Phase to);

  /// Moves up to `us` microseconds already accrued to `token`'s frame
  /// into phase `to` (clamped to what the frame actually holds, so the
  /// partition stays exact under any interleaving).
  void shift(std::uint64_t token, std::uint64_t us, Phase to,
             netsim::SimTime now);

  /// Ends the flow: folds every remaining frame. After this the phase
  /// totals are final and sum(phases) == total_us().
  void end(netsim::SimTime now);

  [[nodiscard]] std::uint64_t total_us() const { return total_us_; }
  [[nodiscard]] std::uint64_t phase_us(Phase phase) const {
    return phase_us_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] const PhaseMicros& phases() const { return phase_us_; }

 private:
  struct Frame {
    Phase phase = Phase::kTransfer;
    std::uint64_t token = 0;
    std::uint64_t self_us = 0;
  };

  /// Accrues sim time since the last transition to the innermost frame.
  void sync(netsim::SimTime now);

  std::vector<Frame> frames_;
  PhaseMicros phase_us_{};
  std::uint64_t total_us_ = 0;
  std::uint64_t next_token_ = 1;
  netsim::SimTime last_{};
  bool active_ = false;
};

/// Per-phase aggregate within one cell: exact microsecond sum plus a
/// mergeable log-bucket sketch over the flows where the phase occurred.
struct PhaseAggregate {
  std::uint64_t us = 0;
  LatencyHistogram sketch;

  friend bool operator==(const PhaseAggregate&,
                         const PhaseAggregate&) = default;
};

/// One ledger cell. `total_us == sum over phases of phases[i].us` — the
/// per-flow invariant survives aggregation because both sides are exact
/// integer sums.
struct AttributionEntry {
  std::uint64_t flows = 0;
  std::uint64_t total_us = 0;
  LatencyHistogram total_sketch;
  std::array<PhaseAggregate, kPhaseCount> phases;

  void merge(const AttributionEntry& other);

  friend bool operator==(const AttributionEntry&,
                         const AttributionEntry&) = default;
};

/// The campaign-wide attribution aggregate: one per shard, merged by
/// name into one. Cells are integer sums, so neither the shard order nor
/// the order cells were created in changes the merged bits.
class AttributionLedger {
 public:
  /// One cell per (provider, country, transport).
  using Entries = LabeledTracks<3, AttributionEntry>;

  /// Folds one finished flow into the (provider, country, transport)
  /// cell. Phase sketches record only occurrences (phase_us > 0), so a
  /// phase's quantiles read "among flows where it happened".
  void record(std::string_view provider, std::string_view country,
              std::string_view transport, const FlowAttribution& flow);

  void merge(const AttributionLedger& other);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const Entries& entries() const { return entries_; }

  friend bool operator==(const AttributionLedger&,
                         const AttributionLedger&) = default;

 private:
  Entries entries_;
};

/// Value-type handle threaded through NetCtx (the SeriesRecorder
/// pattern): the campaign points `ledger` at the shard's ledger, and a
/// flow root (NetCtx::flow) installs its FlowAttribution as `flow` and
/// files it under the context's labels when it ends. Every method is
/// null-safe, so uninstrumented contexts cost one branch.
struct AttributionRecorder {
  AttributionLedger* ledger = nullptr;
  FlowAttribution* flow = nullptr;
  /// While active, DNS-phase frames record as `dns_redirect` instead and
  /// DNS relabels are suppressed (see ScopedDnsRedirect): bootstrap
  /// lookups — resolving the resolver's own hostname in order to connect
  /// to it — are connection-establishment cost, not measured-name
  /// resolution.
  bool dns_redirect_active = false;
  Phase dns_redirect = Phase::kTcpHandshake;

  [[nodiscard]] bool attached() const { return ledger != nullptr; }

  [[nodiscard]] static bool is_dns(Phase phase) {
    return phase == Phase::kDnsCacheHit || phase == Phase::kDnsCacheMiss;
  }

  std::uint64_t push(Phase phase, netsim::SimTime now) {
    if (dns_redirect_active && is_dns(phase)) phase = dns_redirect;
    return flow != nullptr && flow->active() ? flow->push(phase, now) : 0;
  }
  void pop(std::uint64_t token, netsim::SimTime now) {
    if (flow != nullptr && token != 0) flow->pop(token, now);
  }
  void relabel_open(Phase from, Phase to) {
    if (dns_redirect_active && is_dns(from)) return;
    if (flow != nullptr && flow->active()) flow->relabel_open(from, to);
  }
  void shift(std::uint64_t token, std::uint64_t us, Phase to,
             netsim::SimTime now) {
    if (flow != nullptr && token != 0) flow->shift(token, us, to, now);
  }
};

/// RAII: while alive, DNS-phase frames pushed through `recorder` record
/// as `to` and DNS-phase relabels are suppressed. resolver::bootstrap
/// wraps every bootstrap lookup in one: the stub resolution of the
/// resolver's own hostname exists only to establish the connection, so
/// its time belongs to the handshake (or tunnel) phase it gates, and the
/// cold-vs-warm waterfall charges the whole connection bootstrap to
/// connection phases. Nests; the previous redirect state is restored at
/// scope exit.
class ScopedDnsRedirect {
 public:
  ScopedDnsRedirect(AttributionRecorder& recorder, Phase to)
      : recorder_(recorder),
        prev_active_(recorder.dns_redirect_active),
        prev_(recorder.dns_redirect) {
    recorder.dns_redirect_active = true;
    recorder.dns_redirect = to;
  }
  ScopedDnsRedirect(const ScopedDnsRedirect&) = delete;
  ScopedDnsRedirect& operator=(const ScopedDnsRedirect&) = delete;
  ~ScopedDnsRedirect() {
    recorder_.dns_redirect_active = prev_active_;
    recorder_.dns_redirect = prev_;
  }

 private:
  AttributionRecorder& recorder_;
  bool prev_active_ = false;
  Phase prev_ = Phase::kTcpHandshake;
};

}  // namespace dohperf::obs
