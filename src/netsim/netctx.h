// Bundles the pieces a protocol flow needs: simulator, latency model, RNG.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "netsim/faultplan.h"
#include "netsim/latency.h"
#include "netsim/simulator.h"
#include "netsim/task.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/span.h"

namespace dohperf::netsim {

/// Per-attempt retransmit behaviour for one datagram exchange: the timer
/// starts at `initial_timeout` and doubles after every unanswered
/// attempt (classic exponential backoff), and the exchange gives up
/// after `max_attempts` transmissions (the first send plus retransmits).
struct RetryPolicy {
  Duration initial_timeout = from_ms(1000.0);
  int max_attempts = 4;
};

/// What the retry state machine observed for one exchange.
struct RetryOutcome {
  bool delivered = true;
  int retransmits = 0;
  /// Total time spent waiting on retransmit timers.
  Duration backoff{};
};

/// Execution context threaded through every protocol coroutine.
///
/// Non-owning; the owner (usually world::WorldModel) keeps the referenced
/// objects alive for the duration of the simulation.
///
/// Observability attachments are all optional and purely observational:
/// none of them consumes RNG draws, schedules events, or advances the
/// clock, so attaching them cannot change a flow's timing or output.
struct NetCtx {
  Simulator& sim;
  const LatencyModel& latency;
  Rng& rng;
  /// Optional span tree; when set, instrumented layers open nested spans
  /// and every hop is recorded as a leaf under the innermost open span —
  /// the simulator's "Wireshark" (the paper validated its assumptions by
  /// capturing exit-node traffic, Section 4.3): hop_view() lists every
  /// captured message in order.
  obs::SpanContext* spans = nullptr;
  /// Optional per-shard metrics registry (messages, bytes, handshakes,
  /// retries, ...). Owned by whoever runs the flows; single-writer.
  obs::Metrics* metrics = nullptr;
  /// Optional episodic fault plan (loss spikes, blackouts, brownouts,
  /// provider outages) with windows measured from `fault_epoch`. The
  /// campaign samples one plan per session from the session's own RNG
  /// substream, so faults are independent of shard count and scheduling.
  const FaultPlan* faults = nullptr;
  /// The epoch the attached plan's windows are relative to (usually the
  /// session's start time).
  SimTime fault_epoch{};
  /// Optional sim-time series handle (null-safe when series is unset):
  /// retry machines and brownout inflation record *when within the
  /// session* they fired, under whatever labels the owner last set.
  obs::SeriesRecorder series{};
  /// Optional phase-attribution handle (null-safe when unset): flows
  /// install a FlowAttributionScope and instrumented layers push exact
  /// integer-microsecond phase frames, folded into the owner's ledger
  /// under whatever labels the owner last set.
  obs::AttributionRecorder attribution{};

  /// Opens a named span (no-op guard when no span context is attached).
  [[nodiscard]] obs::ScopedSpan span(std::string name) {
    return spans != nullptr
               ? obs::ScopedSpan(spans, sim, std::move(name))
               : obs::ScopedSpan();
  }

  /// Enters an attribution phase (no-op guard when no flow is active).
  [[nodiscard]] obs::ScopedPhase phase(obs::Phase p) {
    return obs::ScopedPhase(attribution, sim, p);
  }

  /// Simulates one message travelling a -> b; completes at arrival time.
  Task<void> hop(const Site& a, const Site& b, std::size_t bytes) {
    return hop(a, b, latency.term(a, b), bytes);
  }

  /// hop() with the a -> b delay term already computed (Path keeps one
  /// per direction).
  Task<void> hop(const Site& a, const Site& b, OneWayTerm term,
                 std::size_t bytes) {
    const SimTime sent = sim.now();
    co_await sim.sleep(latency.one_way(term, bytes, rng));
    if (metrics != nullptr) {
      ++metrics->counters.messages;
      metrics->counters.bytes_on_wire += bytes;
    }
    if (spans != nullptr) {
      spans->record_hop(sent, sim.now(), a.position, b.position, bytes);
    }
  }

  /// Simulates a request/response exchange; returns the measured RTT.
  Task<Duration> round_trip(const Site& a, const Site& b,
                            std::size_t fwd_bytes, std::size_t back_bytes) {
    const SimTime start = sim.now();
    co_await hop(a, b, fwd_bytes);
    co_await hop(b, a, back_bytes);
    co_return sim.now() - start;
  }

  /// Pure processing delay at a host.
  Task<void> process(Duration d) { co_await sim.sleep(d); }

  /// Processing delay at a host, inflated while a brownout episode
  /// covers the host's site. The multiplier path round-trips the
  /// duration through fractional milliseconds, so it is applied only
  /// when an episode is actually active — an idle or absent plan passes
  /// `d` through bit-exactly. The sleep is attributed to
  /// kServerProcessing, with the inflation excess carved out into
  /// kBrownout afterwards (attribution schedules nothing and consumes no
  /// draws, so timings are untouched).
  Task<void> process_at(const Site& where, Duration d) {
    const Duration base = d;
    if (faults != nullptr) {
      const double multiplier =
          faults->processing_multiplier(where.position, fault_now());
      if (multiplier > 1.0) {
        d = from_ms(to_ms(d) * multiplier);
        if (metrics != nullptr) ++metrics->counters.brownout_delays;
        series.count("brownout_delay", sim.now());
      }
    }
    obs::ScopedPhase processing = phase(obs::Phase::kServerProcessing);
    co_await process(d);
    if (d > base) {
      attribution.shift(processing.token(),
                        static_cast<std::uint64_t>((d - base).count()),
                        obs::Phase::kBrownout, sim.now());
    }
  }

  /// Time since the attached fault plan's epoch.
  [[nodiscard]] Duration fault_now() const {
    return sim.now() - fault_epoch;
  }

  /// True when a fault episode currently touches the a<->b path.
  [[nodiscard]] bool fault_active(const Site& a, const Site& b) const {
    return faults != nullptr && !faults->empty() &&
           faults->affects_path(a.position, b.position, fault_now());
  }

  /// Probability that one datagram on a<->b is lost right now: the
  /// endpoints' baseline rates composed with any active loss-spike
  /// episodes. Computes exactly the historical baseline expression when
  /// no episode contributes.
  [[nodiscard]] double loss_probability(const Site& a, const Site& b) const {
    double combined = 1.0 - (1.0 - a.loss_rate) * (1.0 - b.loss_rate);
    if (faults != nullptr && !faults->empty()) {
      const Duration t = fault_now();
      const double spike =
          1.0 - (1.0 - faults->extra_loss(a.position, t)) *
                    (1.0 - faults->extra_loss(b.position, t));
      if (spike > 0.0) combined = 1.0 - (1.0 - combined) * (1.0 - spike);
    }
    return combined;
  }

  /// Runs the datagram retry state machine for one request/response
  /// exchange on a<->b. Outside any fault episode this is the calibrated
  /// baseline, draw- and event-compatible with the historical one-shot
  /// loss penalty: a single loss draw, and on loss one charged
  /// retransmit timer after which the retransmit is assumed delivered —
  /// so an empty plan reproduces golden datasets bit-for-bit. Under an
  /// active episode every attempt draws its own fate (blackout windows
  /// lose deterministically), the timer backs off exponentially, and the
  /// exchange gives up after policy.max_attempts transmissions.
  Task<RetryOutcome> await_datagram_delivery(const Site& a, const Site& b,
                                             RetryPolicy policy) {
    if (!fault_active(a, b)) {
      RetryOutcome out;
      if (rng.bernoulli(loss_probability(a, b))) {
        out.retransmits = 1;
        out.backoff = policy.initial_timeout;
        if (metrics != nullptr) {
          ++metrics->counters.loss_retries;
          metrics->histogram("retry_backoff").record(to_ms(out.backoff));
        }
        series.count("loss_retry", sim.now());
        const obs::ScopedSpan backoff_span = span("retry_backoff");
        const obs::ScopedPhase backoff_phase =
            phase(obs::Phase::kRetryBackoff);
        co_await sim.sleep(out.backoff);
      }
      co_return out;
    }
    co_return co_await run_retry_machine(a, b, policy,
                                         /*handshake=*/false);
  }

  /// SYN/Initial/ClientHello-style retransmit gate for connection
  /// establishment. The calibrated baseline carries no handshake loss
  /// (transport-level recovery is folded into the latency
  /// distributions), so with no active episode this returns immediately
  /// without consuming an RNG draw or scheduling an event — golden
  /// timings stay untouched. Under an episode the handshake datagrams
  /// run the same state machine as application datagrams.
  Task<RetryOutcome> handshake_gate(const Site& a, const Site& b,
                                    RetryPolicy policy) {
    if (!fault_active(a, b)) co_return RetryOutcome{};
    co_return co_await run_retry_machine(a, b, policy, /*handshake=*/true);
  }

 private:
  /// The per-attempt machine, entered only under an active episode.
  Task<RetryOutcome> run_retry_machine(const Site& a, const Site& b,
                                       RetryPolicy policy, bool handshake) {
    RetryOutcome out;
    Duration timer = policy.initial_timeout;
    for (int attempt = 1;; ++attempt) {
      const bool lost =
          faults->link_blacked_out(a.position, b.position, fault_now()) ||
          rng.bernoulli(loss_probability(a, b));
      if (!lost) {
        out.delivered = true;
        co_return out;
      }
      if (attempt >= policy.max_attempts) {
        out.delivered = false;
        if (metrics != nullptr) ++metrics->counters.retry_timeouts;
        series.count("retry_give_up", sim.now());
        co_return out;
      }
      ++out.retransmits;
      if (metrics != nullptr) {
        if (handshake) {
          ++metrics->counters.handshake_retries;
        } else {
          ++metrics->counters.loss_retries;
        }
        metrics->histogram("retry_backoff").record(to_ms(timer));
      }
      series.count(handshake ? "handshake_retry" : "loss_retry", sim.now());
      {
        const obs::ScopedSpan backoff_span = span("retry_backoff");
        const obs::ScopedPhase backoff_phase =
            phase(obs::Phase::kRetryBackoff);
        co_await sim.sleep(timer);
      }
      out.backoff += timer;
      timer *= 2;
    }
  }
};

}  // namespace dohperf::netsim
