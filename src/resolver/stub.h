// Client-side stub helpers: query construction, UUID subdomains, and the
// RFC 8484 GET target for a query.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "dns/message.h"
#include "netsim/netctx.h"
#include "netsim/random.h"
#include "resolver/recursive.h"

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

/// Builds an A query for `<uuid>.<origin>` with a random message id.
[[nodiscard]] dns::Message make_probe_query(netsim::Rng& rng,
                                            const dns::DomainName& origin);

/// Builds the RFC 8484 GET target "/dns-query?dns=<base64url(query)>".
[[nodiscard]] std::string doh_get_target(const dns::Message& query);

}  // namespace dohperf::resolver
