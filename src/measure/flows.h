// The measurement flows of Figure 2.
//
// doh_via_proxy() simulates all 22 steps of the proxied DoH measurement:
// tunnel establishment through the Super Proxy (steps 1-8, yielding the
// timing headers), the tunnelled TLS handshake with the DoH resolver
// (9-14), and the tunnelled query (15-22). It returns both what the
// measurement client could legally observe (timestamps + headers, feeding
// the Equation-7/8 estimators) and the simulator-internal ground truth.
//
// doh_direct() and do53_direct() are the ground-truth variants run "at
// the exit node" for the validation experiments (paper Section 4);
// dot_direct() and doq_direct() measure the same PoPs over DoT and DoQ,
// extensions beyond the paper. The three encrypted flows report one
// DirectObservation.
#pragma once

#include <cmath>
#include <limits>
#include <string>

#include "dns/name.h"
#include "measure/estimator.h"
#include "netsim/netctx.h"
#include "proxy/brightdata.h"
#include "proxy/exit_node.h"
#include "proxy/tunnel.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"

namespace dohperf::measure {

/// Re-exported for estimator call sites; the constant lives with the
/// Tunnel abstraction now.
using proxy::kSuperProxyForwardMs;

/// Output of a proxied DoH measurement.
struct DohProxyObservation {
  bool ok = false;
  int http_status = 0;
  /// What the client observed (legal estimator inputs).
  EstimatorInputs inputs;
  /// Simulator-internal ground truth, by component (ms):
  double true_dns_ms = 0.0;      ///< t3+t4 at the exit node.
  double true_connect_ms = 0.0;  ///< t5+t6.
  double true_tls_ms = 0.0;      ///< t11+t12.
  double true_query_ms = 0.0;    ///< t17+t18+t19+t20.

  /// True end-to-end DoH resolution time as defined by Equation 1.
  [[nodiscard]] double true_tdoh_ms() const {
    return true_dns_ms + true_connect_ms + true_tls_ms + true_query_ms;
  }
};

/// One proxied DoH measurement of `exit` from the study's measurement
/// client (paper: Illinois) through `super_proxy`, against `doh`, the
/// anycast-selected PoP: the exit node bootstraps and CONNECTs to its
/// hostname, and the tunnelled handshake runs at its TLS version. The
/// probe name is a fresh <UUID>.a.com. Every argument must outlive the
/// flow.
[[nodiscard]] netsim::Task<DohProxyObservation> doh_via_proxy(
    netsim::NetCtx& net, const proxy::ExitNode& exit,
    const netsim::Site& super_proxy, resolver::DohServer& doh);

/// What a direct DoH, DoT or DoQ measurement at a controlled vantage
/// observed: the bootstrap, the handshakes, a first query, and a second
/// query reusing the session.
struct DirectObservation {
  bool ok = false;
  int http_status = 0;      ///< DoH only: the last response's status.
  double dns_ms = 0.0;      ///< Bootstrap lookup of the resolver's name.
  double connect_ms = 0.0;  ///< TCP handshake; for DoQ the combined QUIC
                            ///< transport+TLS handshake (0 with 0-RTT).
  double tls_ms = 0.0;      ///< TLS handshake (none for DoQ).
  double query_ms = 0.0;    ///< First query on the session.
  /// The second query. NaN until that query actually completes — a flow
  /// that fails mid-way must not contribute a bogus 0 ms warm sample to
  /// the reuse CDF.
  double reuse_ms = std::numeric_limits<double>::quiet_NaN();

  /// The first query's resolution time, bootstrap and handshakes
  /// included (DoH1, DoT1, DoQ1; Equation 1's t_DoH for DoH).
  [[nodiscard]] double first_ms() const {
    return dns_ms + connect_ms + tls_ms + query_ms;
  }
  [[nodiscard]] bool has_reuse() const { return !std::isnan(reuse_ms); }
};

/// Direct DoH measurement at a controlled vantage (ground truth); the
/// handshake runs at `doh`'s TLS version.
[[nodiscard]] netsim::Task<DirectObservation> doh_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh);

/// DNS-over-TLS (RFC 7858) against the PoP behind `doh`: Cloudflare,
/// Google and Quad9 terminate DoH and DoT on the same anycast front-ends,
/// under the same hostname. DoT skips the HTTP layer; DNS messages travel
/// length-prefixed over the TLS session, at `doh`'s TLS version (the DoT
/// literature the paper cites: Doan et al., PAM 2021).
[[nodiscard]] netsim::Task<DirectObservation> dot_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh);

/// DNS-over-QUIC (RFC 9250) against the PoP behind `doh`. With `resumed`
/// the client holds a ticket from a prior session: no bootstrap (the
/// address is cached too) and 0-RTT.
[[nodiscard]] netsim::Task<DirectObservation> doq_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, bool resumed = false);

/// Output of a proxied Do53 measurement.
struct Do53ProxyObservation {
  bool ok = false;
  proxy::TunTimeline tun;           ///< dns value = the Do53 query time.
  double brightdata_ms = 0.0;
  bool resolved_at_super_proxy = false;
  /// Ground truth: the exit node's actual resolution time (NaN when the
  /// Super Proxy resolved instead).
  double true_do53_ms = 0.0;
};

/// One proxied Do53 measurement of `exit` from the measurement client
/// through `super_proxy`: an HTTP GET to the study web server at a fresh
/// <UUID>.a.com, forcing a default-resolver resolution at the exit node.
/// In the 11 Super Proxy countries (proxy::resolves_dns_at_super_proxy of
/// the exit's advertised country) the Super Proxy resolves instead, at
/// a.com's `authority`, and the reported value is useless for the study.
/// a.com's web host is co-located with `authority`. Every argument must
/// outlive the flow.
[[nodiscard]] netsim::Task<Do53ProxyObservation> do53_via_proxy(
    netsim::NetCtx& net, const proxy::ExitNode& exit,
    const netsim::Site& super_proxy, resolver::AuthoritativeServer& authority);

/// One direct Do53 resolution at a controlled vantage; returns ms.
[[nodiscard]] netsim::Task<double> do53_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* resolver, dns::DomainName name);

}  // namespace dohperf::measure
