// Synthetic web page loads — the paper's Section 7 future-work question:
// how does DoH's per-resolution cost translate into page load time, where
// DNS competes with connection setup and transfer?
//
// A page references `domains` unique third-party hosts; each is resolved
// (all resolutions proceed in parallel, as browsers do), then fetched over
// its own HTTPS connection carrying kObjectsPerDomain objects of
// kObjectBytes each. Page load time is the completion of the slowest
// domain.
#pragma once

#include <cstddef>
#include <string>

#include "netsim/netctx.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "transport/tls.h"

namespace dohperf::web {

/// Objects fetched from each of a page's domains.
inline constexpr int kObjectsPerDomain = 3;
/// Size of each fetched object (octets).
inline constexpr std::size_t kObjectBytes = 20 * 1024;

/// How the page's names are resolved.
enum class DnsMode {
  kDo53,      ///< Default resolver, one UDP exchange per name.
  kDohCold,   ///< DoH: TCP+TLS handshake to the PoP (at its TLS
              ///< version) first, then all queries multiplexed on the
              ///< session.
  kDohWarm,   ///< DoH with an already-established session (kept warm by
              ///< the browser between pages).
};

[[nodiscard]] std::string_view to_string(DnsMode mode);

/// Outcome of one page load.
struct PageLoadResult {
  bool ok = false;
  double total_ms = 0.0;         ///< Page load time (slowest domain done).
  double dns_setup_ms = 0.0;     ///< DoH session establishment (0 for
                                 ///< Do53 / warm DoH).
  double dns_critical_ms = 0.0;  ///< Slowest single name resolution.
  double fetch_critical_ms = 0.0;///< Slowest domain fetch (post-DNS).
};

/// Everything a page load needs from the world.
struct PageLoadContext {
  netsim::Site client;
  /// Default resolver (used by kDo53 and for the DoH bootstrap).
  resolver::RecursiveResolver* default_resolver = nullptr;
  /// DoH front-end at the serving PoP, bootstrapped and addressed by its
  /// hostname (DoH modes only).
  resolver::DohServer* doh = nullptr;
  /// The content server hosting every object (the study's web host).
  netsim::Site web_server;
};

/// Loads one synthetic page of `domains` domains, each fetched over
/// HTTPS with a TLS 1.3 handshake; every domain is a fresh
/// (cache-missing) <UUID>.a.com, matching the study's worst-case
/// framing. `ctx` is taken by value: the coroutine reads it
/// after suspending, when a caller's temporary would be gone.
[[nodiscard]] netsim::Task<PageLoadResult> load_page(
    netsim::NetCtx& net, PageLoadContext ctx, int domains, DnsMode mode);

}  // namespace dohperf::web
