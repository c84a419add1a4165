// DNS-over-TLS (RFC 7858) measurement flows — an extension beyond the
// paper, which focused on DoH but compares against the DoT literature
// (Doan et al., PAM 2021) in its related-work section.
//
// DoT rides the same provider PoPs as DoH (Cloudflare, Google and Quad9
// all serve both from the same anycast fleets) but skips the HTTP layer:
// DNS messages travel length-prefixed directly over the TLS session.
#pragma once

#include <cmath>
#include <limits>

#include "dns/name.h"
#include "netsim/netctx.h"
#include "resolver/doh_server.h"
#include "transport/tls.h"

namespace dohperf::measure {

/// Output of a direct DoT measurement at a controlled vantage.
struct DirectDotObservation {
  bool ok = false;
  double dns_ms = 0.0;      ///< Bootstrap resolution of the DoT hostname.
  double connect_ms = 0.0;  ///< TCP handshake.
  double tls_ms = 0.0;      ///< TLS handshake.
  double query_ms = 0.0;    ///< First query on the session.
  /// Second query reusing the session; NaN until it completes (failed
  /// first queries must not feed a 0 ms sample into the reuse CDF).
  double reuse_ms = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] double tdot_ms() const {
    return dns_ms + connect_ms + tls_ms + query_ms;
  }
  [[nodiscard]] double tdotr_ms() const { return reuse_ms; }
  [[nodiscard]] bool has_reuse() const { return !std::isnan(reuse_ms); }
};

/// Runs a DoT resolution (plus one reuse query) against the PoP behind
/// `doh` — the same front-end terminates both protocols, under the same
/// hostname; DoT simply skips the HTTP encapsulation.
[[nodiscard]] netsim::Task<DirectDotObservation> dot_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, transport::TlsVersion tls,
    dns::DomainName origin);

}  // namespace dohperf::measure
