// Warm-path measurement flows: the steady-state pricing the one-shot
// flows deliberately avoid.
//
// The paper's methodology is worst-case by construction — every query is
// a fresh <UUID>.a.com over a fresh connection, so DoH pays bootstrap +
// TCP + TLS + full recursion every single time. Böttger et al. (see
// PAPERS.md) showed that deployed clients amortise almost all of that:
// persistent connections make the nth query ride a warm session, session
// tickets turn reconnects into 1-RTT (TLS) or 0-RTT (QUIC) events, and
// the resolver's shared cache answers popular names without recursing.
// These flows measure that world: a client issues a burst of
// Zipf-popular queries through a ConnectionPool against a resolver
// fronted by the stateless SharedCacheModel, recording per-query
// latency *with its query index*, so cold (index 0) and warm (index
// >= 1) samples separate cleanly downstream.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "client/connection_pool.h"
#include "netsim/netctx.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "resolver/shared_cache.h"

namespace dohperf::measure {

/// Connection-reuse knobs ([reuse] in a CampaignSpec).
struct ReuseConfig {
  bool enabled = false;
  /// Queries issued per warm-path session (index 0 is the cold one).
  int queries_per_session = 8;
  /// Mean of the exponential think-time between queries (zero = none):
  /// long enough gaps walk the connection past its idle timeout and
  /// exercise the resumption path instead of plain reuse.
  netsim::Duration think_time = netsim::from_ms(0.0);
  client::PoolConfig pool;
};

/// One query of a warm-path session.
struct WarmQueryObservation {
  int query_index = 0;   ///< 0-based index within the session.
  bool connection_reused = false;  ///< Rode a live pooled connection.
  bool session_resumed = false;    ///< Reconnected via session ticket.
  bool stub_hit = false;    ///< Answered from the client-local cache.
  bool shared_hit = false;  ///< Answered from the resolver's shared cache.
  /// End-to-end latency including any connection setup this query
  /// triggered (so index 0 prices the cold start). NaN if it failed.
  double ms = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] bool valid() const { return !std::isnan(ms); }
};

/// A whole warm-path session.
struct WarmPathObservation {
  bool ok = false;  ///< Every query completed.
  std::vector<WarmQueryObservation> queries;
  client::PoolStats pool;  ///< Final pool accounting for the session.
};

/// Parameters for a warm DoH session at a controlled vantage.
struct WarmDohParams {
  netsim::Site vantage;
  /// Bootstrap resolver for the DoH hostname (cold acquisitions only).
  resolver::RecursiveResolver* default_resolver = nullptr;
  /// The serving PoP; the pool keys its connection by its hostname, and
  /// handshakes and resumptions run at its TLS version.
  resolver::DohServer* doh = nullptr;
  /// Shared-cache model; nullptr prices every query as a full recursion.
  const resolver::SharedCacheModel* cache = nullptr;
  ReuseConfig reuse;
};

/// Runs one warm DoH session: queries_per_session Zipf-popular queries
/// through a fresh ConnectionPool (query 0 is always cold). The PoP cache
/// is centralized: the model's whole population warms it.
[[nodiscard]] netsim::Task<WarmPathObservation> doh_warm_path(
    netsim::NetCtx& net, WarmDohParams params);

/// Parameters for the Do53 counterpart: no connections to warm (UDP),
/// but the same stub cache and a *distributed* shared cache — only one
/// ISP's share of the model's population (`isp_share`) warms it.
struct WarmDo53Params {
  netsim::Site vantage;
  resolver::RecursiveResolver* resolver = nullptr;
  const resolver::SharedCacheModel* cache = nullptr;
  ReuseConfig reuse;
};

[[nodiscard]] netsim::Task<WarmPathObservation> do53_warm_path(
    netsim::NetCtx& net, WarmDo53Params params);

}  // namespace dohperf::measure
