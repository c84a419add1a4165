// DoH front-end (RFC 8484 GET binding) over a recursive resolver.
//
// One DohServer instance runs at each provider point-of-presence; the
// backend recursive resolver is co-located with it, so the PoP -> a.com
// authoritative leg travels on the provider's backbone site parameters.
#pragma once

#include <cstdint>
#include <string>

#include "netsim/netctx.h"
#include "resolver/recursive.h"
#include "transport/http.h"

namespace dohperf::resolver {

/// Handles "GET /dns-query?dns=<base64url>" requests.
///
/// The HTTPS front-end (`frontend_site`) is where clients terminate TCP
/// and TLS — providers onboard clients near the edge, so its route
/// inflation is low. The backend recursive resolver keeps its own site
/// whose inflation reflects the long-haul transit its upstream queries
/// actually ride.
class DohServer {
 public:
  DohServer(std::string hostname, netsim::Site frontend_site,
            RecursiveResolver resolver);

  /// Parses the HTTP request (RFC 8484 GET ?dns= or POST body), resolves
  /// the carried DNS query, and returns an HTTP response with an
  /// application/dns-message body. Malformed requests yield 400 without
  /// touching the resolver. `client_address` (host-order IPv4, 0 =
  /// unknown) feeds the backend resolver's ECS policy.
  [[nodiscard]] netsim::Task<transport::HttpResponse> handle(
      netsim::NetCtx& net, transport::HttpRequest request,
      std::uint32_t client_address = 0);

  [[nodiscard]] const std::string& hostname() const { return hostname_; }
  /// The TLS-terminating front-end clients talk to.
  [[nodiscard]] const netsim::Site& site() const { return frontend_site_; }
  [[nodiscard]] RecursiveResolver& resolver() { return resolver_; }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  std::string hostname_;
  netsim::Site frontend_site_;
  RecursiveResolver resolver_;
  std::uint64_t served_ = 0;
};

/// The 200 response carrying `answer` as an application/dns-message body,
/// as a DoH front-end named `server` sends it.
[[nodiscard]] transport::HttpResponse dns_message_response(
    const dns::Message& answer, const std::string& server);

}  // namespace dohperf::resolver
