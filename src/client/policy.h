// Client-side DoH deployment policies.
//
// Browsers do not simply "turn on DoH": Firefox's default mode falls back
// to Do53 when the DoH resolver is unreachable or times out, while strict
// ("max protection") mode fails closed. Huang et al. (FOCI 2020, cited by
// the paper) showed the fallback path is exactly what downgrade attacks
// exploit; the paper's discussion section asks vendors to weigh such
// policies per country. This module models the three canonical modes so
// their latency/reliability/privacy trade-off can be measured.
#pragma once

#include <string>

#include "dns/name.h"
#include "netsim/netctx.h"
#include "obs/outcome.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "transport/tls.h"

namespace dohperf::client {

/// The canonical browser configurations, plus the happy-eyeballs racer
/// the availability literature compares serial fallback against.
enum class DohMode {
  kOff,            ///< Classic Do53 via the default resolver.
  kOpportunistic,  ///< Try DoH; on failure/timeout, downgrade to Do53.
  kStrict,         ///< DoH only; fail closed when unreachable.
  kRace,           ///< Fire DoH and (a stagger later) Do53 concurrently;
                   ///< first answer wins. Masks outages at a privacy cost.
};

[[nodiscard]] std::string_view to_string(DohMode mode);

/// Everything a policy resolution needs.
struct PolicyContext {
  netsim::Site client;
  resolver::RecursiveResolver* default_resolver = nullptr;
  /// The serving PoP; the client bootstraps and addresses its hostname.
  resolver::DohServer* doh = nullptr;
  dns::DomainName origin;
  /// Fault injection: the DoH resolver is unreachable for this client
  /// (TCP SYNs vanish). The client only learns this via its timeout.
  bool doh_unreachable = false;
  /// How long the client waits before declaring DoH dead (browsers use a
  /// few seconds; Firefox's network.trr.request_timeout_ms is 1500).
  netsim::Duration doh_timeout = netsim::from_ms(1500);
};

/// Outcome of one policy-driven resolution.
struct PolicyOutcome {
  bool resolved = false;
  bool used_doh = false;       ///< The answer came over DoH.
  bool downgraded = false;     ///< The answer (or final failure) came from
                               ///< the Do53 leg after DoH lost or failed.
  double elapsed_ms = 0.0;     ///< Wall time until an answer (or failure).
  /// Terminal classification, assigned exactly once at the exit path.
  obs::Outcome outcome = obs::Outcome::kTimeoutGiveup;
};

/// Resolves one fresh name under `mode`. The DoH path pays the full
/// first-connection cost (bootstrap + TCP + TLS), as a browser does on
/// its first resolution after startup. `ctx` is taken by value: the
/// coroutine reads it after suspending, when a caller's temporary would
/// be gone.
[[nodiscard]] netsim::Task<PolicyOutcome> resolve_with_policy(
    netsim::NetCtx& net, PolicyContext ctx, DohMode mode);

}  // namespace dohperf::client
