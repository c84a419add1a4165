#include "client/policy.h"

#include <algorithm>

#include "resolver/stub.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace dohperf::client {
namespace {

using netsim::NetCtx;
using netsim::SimTime;
using netsim::Task;

/// kRace only: head start the DoH leg gets before the Do53 leg fires
/// (the happy-eyeballs connection-attempt delay).
constexpr netsim::Duration kRaceStagger = netsim::from_ms(250);

/// Plain Do53 resolution of a fresh name; true on success.
Task<bool> resolve_do53(NetCtx& net, const PolicyContext& ctx) {
  const resolver::StubResult result = co_await resolver::stub_resolve(
      net, ctx.client, *ctx.default_resolver,
      resolver::make_probe_query(net.rng, ctx.origin));
  co_return result.ok();
}

/// Full first-use DoH resolution; true on success. Assumes reachability
/// was already established (the unreachable case is handled by the
/// caller via the timeout, because the client cannot distinguish a slow
/// resolver from a blackholed one).
Task<bool> resolve_doh(NetCtx& net, const PolicyContext& ctx) {
  const resolver::StubResult boot = co_await resolver::bootstrap(
      net, ctx.client, *ctx.default_resolver, *ctx.doh,
      obs::Phase::kTcpHandshake);
  if (!boot.ok()) co_return false;

  const transport::TcpConnection tcp =
      co_await transport::tcp_connect(net, ctx.client, ctx.doh->site());
  if (!tcp.established) co_return false;
  const transport::TlsSession tls = co_await transport::tls_handshake(tcp);
  if (!tls.established) co_return false;

  const transport::HttpResponse resp = co_await resolver::doh_exchange(
      net, tls, *ctx.doh,
      resolver::doh_get(resolver::make_probe_query(net.rng, ctx.origin),
                        ctx.doh->hostname()));
  co_return resp.status == 200;
}

/// Counts one DoH -> Do53 downgrade and how its Do53 leg ended.
void note_fallback(NetCtx& net, bool resolved) {
  net.note({&obs::MetricCounters::fallbacks});
  net.note({resolved ? &obs::MetricCounters::fallback_ok
                     : &obs::MetricCounters::fallback_failed});
}

}  // namespace

std::string_view to_string(DohMode mode) {
  switch (mode) {
    case DohMode::kOff:
      return "off (Do53)";
    case DohMode::kOpportunistic:
      return "opportunistic (DoH with Do53 fallback)";
    case DohMode::kStrict:
      return "strict (DoH only)";
    case DohMode::kRace:
      return "race (DoH raced against Do53)";
  }
  return "?";
}

netsim::Task<PolicyOutcome> resolve_with_policy(netsim::NetCtx& net,
                                                PolicyContext ctx,
                                                DohMode mode) {
  PolicyOutcome outcome;
  const SimTime start = net.sim.now();

  if (mode == DohMode::kOff) {
    outcome.resolved = co_await resolve_do53(net, ctx);
    outcome.elapsed_ms = netsim::ms_between(start, net.sim.now());
    outcome.outcome = obs::classify_flow_outcome({.ok = outcome.resolved});
    co_return outcome;
  }

  if (mode == DohMode::kRace) {
    // Happy-eyeballs: the DoH leg fires immediately, the Do53 leg
    // kRaceStagger later, and the first answer wins. The two legs share
    // no simulated resource, so each is timed on its own and the winner
    // is composed analytically — identical answer to interleaving them,
    // without nesting scheduler tasks.
    double doh_ms = -1.0;
    if (!ctx.doh_unreachable) {
      const SimTime leg = net.sim.now();
      if (co_await resolve_doh(net, ctx)) {
        doh_ms = netsim::ms_between(leg, net.sim.now());
      }
    }
    double do53_ms = -1.0;
    {
      const SimTime leg = net.sim.now();
      if (co_await resolve_do53(net, ctx)) {
        do53_ms = netsim::to_ms(kRaceStagger) +
                  netsim::ms_between(leg, net.sim.now());
      }
    }
    outcome.resolved = doh_ms >= 0.0 || do53_ms >= 0.0;
    outcome.used_doh =
        doh_ms >= 0.0 && (do53_ms < 0.0 || doh_ms <= do53_ms);
    outcome.downgraded = outcome.resolved ? !outcome.used_doh : true;
    if (outcome.downgraded) note_fallback(net, outcome.resolved);
    outcome.elapsed_ms = outcome.used_doh ? doh_ms
                         : outcome.resolved
                             ? do53_ms
                             : netsim::ms_between(start, net.sim.now());
    outcome.outcome = obs::classify_flow_outcome(
        {.ok = outcome.resolved,
         .used_fallback = outcome.downgraded,
         .provider_unreachable = ctx.doh_unreachable});
    co_return outcome;
  }

  // DoH first. An unreachable resolver manifests as silence: the client
  // cannot distinguish a blackholed resolver from a slow one, so it runs
  // its SYN retransmit schedule — genuine timer expiries, not a
  // pre-charged penalty — until its own deadline cuts the attempt off.
  // Each wait is the same retry step and event as NetCtx's machines.
  if (ctx.doh_unreachable) {
    netsim::Duration remaining = ctx.doh_timeout;
    netsim::Duration timer = transport::kSynRetryPolicy.initial_timeout;
    while (remaining > netsim::Duration::zero()) {
      const netsim::Duration wait = std::min(timer, remaining);
      net.note_retry(obs::kHandshakeRetry, wait);
      {
        const auto backoff = net.step(obs::kRetryWait);
        co_await net.sim.sleep(wait);
      }
      remaining -= wait;
      timer *= 2;
    }
    net.note(obs::kRetryGiveUp);
    if (mode == DohMode::kStrict) {
      // Fail closed: no resolution, privacy preserved.
      outcome.elapsed_ms = netsim::ms_between(start, net.sim.now());
      outcome.outcome =
          obs::classify_flow_outcome({.provider_unreachable = true});
      co_return outcome;
    }
    outcome.downgraded = true;
    outcome.resolved = co_await resolve_do53(net, ctx);
    note_fallback(net, outcome.resolved);
    outcome.elapsed_ms = netsim::ms_between(start, net.sim.now());
    outcome.outcome =
        obs::classify_flow_outcome({.ok = outcome.resolved,
                                    .used_fallback = true,
                                    .provider_unreachable = true});
    co_return outcome;
  }

  const bool ok = co_await resolve_doh(net, ctx);
  if (ok) {
    outcome.resolved = true;
    outcome.used_doh = true;
  } else if (mode == DohMode::kOpportunistic) {
    outcome.downgraded = true;
    outcome.resolved = co_await resolve_do53(net, ctx);
    note_fallback(net, outcome.resolved);
  }
  outcome.elapsed_ms = netsim::ms_between(start, net.sim.now());
  outcome.outcome = obs::classify_flow_outcome(
      {.ok = outcome.resolved, .used_fallback = outcome.downgraded});
  co_return outcome;
}

}  // namespace dohperf::client
