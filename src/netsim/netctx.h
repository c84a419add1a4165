// Bundles the pieces a protocol flow needs: simulator and RNG.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "netsim/faultplan.h"
#include "netsim/latency.h"
#include "netsim/simulator.h"
#include "netsim/task.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/span.h"
#include "obs/step.h"

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
  Rng& rng;
  /// Optional span tree; when set, instrumented layers open nested spans
  /// and every hop is recorded as a leaf under `span` — the simulator's
  /// "Wireshark" (the paper validated its assumptions by capturing
  /// exit-node traffic, Section 4.3): hop_view() lists every captured
  /// message in order.
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
  /// session* they fired, under `labels`.
  obs::SeriesRecorder series{};
  /// Optional phase-attribution handle (null-safe when unset): flow roots
  /// install their FlowAttribution and steps push exact
  /// integer-microsecond phase frames, folded into the owner's ledger
  /// under `labels` when the flow ends.
  obs::AttributionRecorder attribution{};
  /// The (provider, country) the flows that follow are filed under; the
  /// owner sets them before each flow.
  obs::Labels labels{};
  /// The innermost span this context's task has open, the parent of the
  /// spans and hops it records next (kNoSpan: none). Each step sets it
  /// while it lives. A task that runs concurrently with others of the
  /// same flow runs on its own copy of the context, so each keeps its own
  /// branch of the tree.
  obs::SpanId span = obs::kNoSpan;

  /// Guard of one step (see step()): ends the step's span and phase
  /// frame together, at the simulator's then-current time, on finish()
  /// or destruction. Default-constructed guards are no-ops.
  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { finish(); }

    /// Ends the step now instead of at scope exit.
    void finish() {
      if (net_ == nullptr) return;
      net_->attribution.pop(token_, net_->sim.now());
      if (spans_ != nullptr) {
        spans_->close(span_, net_->sim.now());
        net_->span = parent_;
      }
      net_ = nullptr;
    }

    /// The step's phase frame (0 when it pushed none).
    [[nodiscard]] std::uint64_t token() const { return token_; }

   protected:
    friend struct NetCtx;
    Scope(NetCtx& net, const obs::Step& s) : net_(&net) {
      net.note({s.counter});
      // The span name becomes a string only on the traced path.
      if (net.spans != nullptr && !s.span.empty()) {
        spans_ = net.spans;
        parent_ = net.span;
        span_ = spans_->open(std::string(s.span), parent_, net.sim.now());
        net.span = span_;
      }
      if (s.phase) token_ = net.attribution.push(*s.phase, net.sim.now());
    }

    NetCtx* net_ = nullptr;
    obs::SpanContext* spans_ = nullptr;  ///< Where the span was opened.
    obs::SpanId span_ = obs::kNoSpan;
    obs::SpanId parent_ = obs::kNoSpan;  ///< `net_->span` before this step.
    std::uint64_t token_ = 0;
  };

  /// Guard of a flow root (see flow()): the root step plus the flow's own
  /// FlowAttribution, installed on `attribution` while the guard lives
  /// (an enclosing flow stops accruing until it ends). On destruction the
  /// flow is filed under (labels, transport) — labels read at that time —
  /// and then the root step ends.
  class FlowScope : Scope {
   public:
    FlowScope(const FlowScope&) = delete;
    FlowScope& operator=(const FlowScope&) = delete;
    ~FlowScope() {
      if (!flow_.active()) return;  // no ledger attached
      flow_.end(net_->sim.now());
      const auto [provider, country] = net_->labels;
      net_->attribution.ledger->record(provider, country, transport_, flow_);
      net_->attribution.flow = prev_;
    }

   private:
    friend struct NetCtx;
    // A root carries no phase: its own time is the flow's base phase.
    FlowScope(NetCtx& net, const obs::Step& s)
        : Scope(net, s), transport_(s.transport) {
      assert(!s.phase);
      if (!net.attribution.attached()) return;  // no ledger: a plain step
      flow_.begin(net.sim.now());
      prev_ = std::exchange(net.attribution.flow, &flow_);
    }

    std::string_view transport_;
    obs::FlowAttribution flow_;
    obs::FlowAttribution* prev_ = nullptr;
  };

  /// Enters step `s`: bumps its counter, opens its span while a span
  /// context is attached and pushes its phase frame; the guard ends
  /// both. `const auto tls = net.step({"tls_handshake", ...});`
  [[nodiscard]] Scope step(const obs::Step& s) { return Scope(*this, s); }

  /// Opens a flow root: step `s` plus a fresh attribution flow filed
  /// under (labels, s.transport) when the guard ends.
  [[nodiscard]] FlowScope flow(const obs::Step& s) {
    return FlowScope(*this, s);
  }

  /// Counts event `e`: bumps its counter and adds one sample to its
  /// series track under `labels`.
  void note(const obs::Event& e) {
    if (e.counter != nullptr && metrics != nullptr) {
      ++(metrics->counters.*e.counter);
    }
    if (!e.series.empty()) series.count(e.series, labels, sim.now());
  }

  /// note() for a retransmit, plus the `retry_backoff` histogram sample
  /// of the timer it waits out.
  void note_retry(const obs::Event& e, Duration timer) {
    note(e);
    if (metrics != nullptr) {
      metrics->histogram("retry_backoff").record(to_ms(timer));
    }
  }

  /// Simulates one message travelling a -> b; completes at arrival time.
  Task<void> hop(const Site& a, const Site& b, std::size_t bytes) {
    return hop(a, b, one_way_term(a, b), bytes);
  }

  /// hop() with the a -> b delay term already computed (Path keeps one
  /// per direction).
  Task<void> hop(const Site& a, const Site& b, OneWayTerm term,
                 std::size_t bytes) {
    const SimTime sent = sim.now();
    co_await sim.sleep(one_way(term, bytes, rng));
    if (metrics != nullptr) {
      ++metrics->counters.messages;
      metrics->counters.bytes_on_wire += bytes;
    }
    if (spans != nullptr) {
      spans->record_hop(span, sent, sim.now(), a.position, b.position, bytes);
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
        note({&obs::MetricCounters::brownout_delays, "brownout_delay"});
      }
    }
    const Scope processing = step({.phase = obs::Phase::kServerProcessing});
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
        note_retry(obs::kLossRetry, out.backoff);
        const Scope wait = step(obs::kRetryWait);
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
        note(obs::kRetryGiveUp);
        co_return out;
      }
      ++out.retransmits;
      note_retry(handshake ? obs::kHandshakeRetry : obs::kLossRetry, timer);
      {
        const Scope wait = step(obs::kRetryWait);
        co_await sim.sleep(timer);
      }
      out.backoff += timer;
      timer *= 2;
    }
  }
};

}  // namespace dohperf::netsim
