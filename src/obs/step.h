// One instrumented step of a flow, as a value.
//
// The paper prices a DoH query as a chain of steps — tunnel set-up, TLS
// handshake, resolution (Fig. 2, Tables 1-2) — and every sink sees each
// step: the span tree names it, the attribution ledger charges its time
// to a phase, and the metrics registry counts it. A Step bundles those
// facets so an instrumented site makes one call (netsim::NetCtx::step, or
// NetCtx::flow for a flow root) and the sinks cannot drift apart. An Event
// is the instantaneous counterpart — a retry, a give-up, a cache hit —
// counted in the registry and, optionally, in a series track
// (NetCtx::note).
//
// Both are constexpr values, not keys into a table: a site spells its
// step inline, and only a step or event that recurs gets a named
// constant below. Every member has a default, so a site names only what
// it uses (`{"tcp_handshake", Phase::kTcpHandshake, &...::tcp_handshakes}`,
// `{.phase = Phase::kServerProcessing}`).
#pragma once

#include <optional>
#include <string_view>

#include "obs/attribution.h"
#include "obs/metrics.h"

namespace dohperf::obs {

/// One step of a flow. While its guard lives, the step is the span
/// `span` (none when empty, or when no span context is attached), its
/// time is charged to `phase` (when set), and on entry it bumps
/// `counter` (when set). A flow root also names the `transport` its
/// attribution flow is filed under.
struct Step {
  std::string_view span{};
  std::optional<Phase> phase{};
  Counter counter = nullptr;
  std::string_view transport{};
};

/// An instantaneous event: bumps `counter` (when set) and counts one
/// sample in the series track `series` (none when empty).
struct Event {
  Counter counter = nullptr;
  std::string_view series{};
};

/// The retry machines' vocabulary (NetCtx's datagram and handshake
/// machines, and the client policy's unreachable-resolver wait): one
/// event per retransmit or give-up, and the wait on each retransmit
/// timer.
inline constexpr Event kLossRetry{&MetricCounters::loss_retries, "loss_retry"};
inline constexpr Event kHandshakeRetry{&MetricCounters::handshake_retries,
                                       "handshake_retry"};
inline constexpr Event kRetryGiveUp{&MetricCounters::retry_timeouts,
                                    "retry_give_up"};
inline constexpr Step kRetryWait{"retry_backoff", Phase::kRetryBackoff};

}  // namespace dohperf::obs
