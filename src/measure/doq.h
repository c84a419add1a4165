// DNS-over-QUIC (RFC 9250) measurement flows plus session-resumption
// variants for DoH — extensions beyond the paper (its background section
// lists DoQ among the encrypted-DNS protocols; resumption is how deployed
// DoH clients amortise reconnects).
#pragma once

#include <cmath>
#include <limits>

#include "dns/name.h"
#include "netsim/netctx.h"
#include "resolver/doh_server.h"
#include "transport/quic.h"

namespace dohperf::measure {

/// Output of a direct DoQ measurement.
struct DirectDoqObservation {
  bool ok = false;
  double dns_ms = 0.0;      ///< Bootstrap of the DoQ hostname.
  double connect_ms = 0.0;  ///< Combined QUIC transport+TLS handshake
                            ///< (zero when resumed with 0-RTT).
  double query_ms = 0.0;
  /// NaN until the reuse query completes (see DirectDohObservation).
  double reuse_ms = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] double tdoq_ms() const {
    return dns_ms + connect_ms + query_ms;
  }
  [[nodiscard]] double tdoqr_ms() const { return reuse_ms; }
  [[nodiscard]] bool has_reuse() const { return !std::isnan(reuse_ms); }
};

/// Runs a DoQ resolution (one reuse query included) against the PoP
/// behind `doh`. With `resumed` the client holds a ticket from a prior
/// session: no bootstrap (the address is cached too) and 0-RTT.
[[nodiscard]] netsim::Task<DirectDoqObservation> doq_direct(
    netsim::NetCtx& net, netsim::Site vantage,
    resolver::RecursiveResolver* default_resolver,
    resolver::DohServer& doh, dns::DomainName origin, bool resumed = false);

}  // namespace dohperf::measure
