// Client-side stub helpers: query construction, UUID subdomains, and the
// steps every encrypted-DNS client repeats — the bootstrap lookup of the
// resolver's name, the RFC 8484 GET and its exchange, and a DNS message
// exchange over a stream (DoT, DoQ).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "dns/message.h"
#include "netsim/netctx.h"
#include "netsim/random.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "transport/connection.h"
#include "transport/http.h"

namespace dohperf::resolver {

/// Outcome of a stub (client-side) resolution against a recursive
/// resolver.
struct StubResult {
  double elapsed_ms = 0.0;
  dns::Rcode rcode = dns::Rcode::kServFail;
  /// The query never got through: every retransmit was lost and the stub
  /// gave up (see kStubRetryPolicy). rcode stays SERVFAIL.
  bool timed_out = false;
  /// Retransmits the stub's retry state machine performed.
  int retransmits = 0;

  [[nodiscard]] bool ok() const { return rcode == dns::Rcode::kNoError; }
};

/// The stub's UDP retry schedule: ~1 s initial timer (the classic Do53
/// retransmit), doubling, giving up after the 4th transmission.
inline constexpr netsim::RetryPolicy kStubRetryPolicy{
    std::chrono::milliseconds(1000), 4};

/// One UDP question/answer exchange from `vantage` against `resolver`:
/// query out (with a stub retransmit penalty on simulated loss), full
/// recursive resolution, answer back. This is the shared primitive behind
/// every Do53 measurement, DoH/DoT/DoQ bootstrap, and page-load
/// resolution in the repository.
[[nodiscard]] netsim::Task<StubResult> stub_resolve(
    netsim::NetCtx& net, const netsim::Site& vantage,
    RecursiveResolver& resolver, dns::Message query,
    std::uint32_t client_address = 0);

/// Generates a fresh UUIDv4-style label ("f47ac10b-58cc-4372-a567-...")
/// used to defeat caching, as in the paper ("<UUID>.a.com").
[[nodiscard]] std::string uuid_label(netsim::Rng& rng);

/// The fresh probe name `<uuid>.<origin>`; the label is formatted on the
/// stack.
[[nodiscard]] dns::DomainName probe_name(netsim::Rng& rng,
                                         const dns::DomainName& origin);

/// Builds an A query for `name` with a random message id. This and
/// make_probe_query are the only places a client draws a message id.
[[nodiscard]] dns::Message make_query(netsim::Rng& rng, dns::DomainName name);

/// Builds an A query for `<uuid>.<origin>` with a random message id (the
/// id is drawn before the UUID).
[[nodiscard]] dns::Message make_probe_query(netsim::Rng& rng,
                                            const dns::DomainName& origin);

/// Builds the RFC 8484 GET target "/dns-query?dns=<base64url(query)>".
[[nodiscard]] std::string doh_get_target(const dns::Message& query);

/// Builds the RFC 8484 GET request for `query`: the GET target plus the
/// `host` header naming the DoH server.
[[nodiscard]] transport::HttpRequest doh_get(const dns::Message& query,
                                             const std::string& host);

/// The bootstrap of an encrypted-DNS connection: looks up `doh`'s hostname
/// from `vantage` through `resolver` with a fresh query, under a
/// `bootstrap_dns` span whose one child is the lookup's `stub_resolve`.
/// The lookup exists only to set up the connection, so the attribution
/// ledger charges its DNS time to `gates`, the phase of the connection it
/// gates (tcp or quic handshake, or tunnel_connect), never to
/// dns_cache_hit or dns_cache_miss; the resolver's own processing stays
/// server_processing (DESIGN.md §3d).
[[nodiscard]] netsim::Task<StubResult> bootstrap(
    netsim::NetCtx& net, const netsim::Site& vantage,
    RecursiveResolver& resolver, const DohServer& doh, obs::Phase gates);

/// One DoH exchange on an established `session`: the request out,
/// `doh`'s handling of it, the response back.
[[nodiscard]] netsim::Task<transport::HttpResponse> doh_exchange(
    netsim::NetCtx& net, const transport::Connection& session,
    DohServer& doh, transport::HttpRequest request);

/// One DNS message exchange over a stream connection (DoT's
/// length-prefixed channel, a DoQ stream): the query out, recursion at
/// `resolver`, the answer back. The result's elapsed time spans all three.
[[nodiscard]] netsim::Task<StubResult> stream_exchange(
    netsim::NetCtx& net, const transport::Connection& stream,
    RecursiveResolver& resolver, dns::Message query);

}  // namespace dohperf::resolver
