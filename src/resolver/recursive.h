// A caching recursive resolver.
//
// Serves two roles in the study: (1) the per-country "default" (ISP)
// resolver used by Do53 measurements, and (2) the backend resolver behind
// each DoH point-of-presence. Because every measured name is a fresh
// <UUID>.a.com, measured queries always miss the cache and recurse to the
// authoritative server — the paper's deliberate worst-case design.
#pragma once

#include <cstdint>
#include <string>

#include "dns/cache.h"
#include "dns/message.h"
#include "netsim/netctx.h"
#include "resolver/authoritative.h"

namespace dohperf::resolver {

/// Resolver statistics.
struct ResolverStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t recursions = 0;
  std::uint64_t failures = 0;
};

/// Whether the resolver forwards EDNS Client Subnet upstream (RFC 7871).
/// Providers differ: Google forwards a truncated /24; Cloudflare refuses
/// on privacy grounds.
enum class EcsPolicy {
  kNever,
  kForwardSlash24,
};

/// A recursive resolver at a fixed network site.
class RecursiveResolver {
 public:
  /// `address` identifies this resolver at the authoritative server.
  /// `processing` is the per-query server-side delay.
  /// `processing` is charged on cache misses (full recursion work);
  /// cache hits cost a tenth of it plus a small constant — hot-name
  /// lookups are served from the frontend cache even on loaded boxes.
  RecursiveResolver(std::string name, netsim::Site site,
                    std::uint32_t address, AuthoritativeServer* authority,
                    netsim::Duration processing = netsim::from_ms(0.5));

  /// Resolves `query`, consulting the positive and negative caches and
  /// recursing over the network on a miss. `client_address` (host-order
  /// IPv4, 0 = unknown) feeds the ECS policy; the address itself is
  /// truncated to /24 before it leaves this resolver.
  [[nodiscard]] netsim::Task<dns::Message> resolve(
      netsim::NetCtx& net, dns::Message query,
      std::uint32_t client_address = 0);

  void set_ecs_policy(EcsPolicy policy) { ecs_policy_ = policy; }
  [[nodiscard]] EcsPolicy ecs_policy() const { return ecs_policy_; }

  [[nodiscard]] const netsim::Site& site() const { return site_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t address() const { return address_; }
  [[nodiscard]] netsim::Duration processing_delay() const {
    return processing_;
  }
  [[nodiscard]] const ResolverStats& stats() const { return stats_; }
  [[nodiscard]] dns::Cache& cache() { return cache_; }

  /// Server-side delay of a frontend-cache hit (what resolve() charges on
  /// its hit path). Exposed so warm-path models that price hits without
  /// touching resolver state stay consistent with the real hit path.
  [[nodiscard]] netsim::Duration cache_hit_cost() const {
    return netsim::from_ms(0.5) + processing_ / 10;
  }

 private:
  std::string name_;
  netsim::Site site_;
  std::uint32_t address_;
  AuthoritativeServer* authority_;  ///< Non-owning; outlives the resolver.
  netsim::Duration processing_;
  dns::Cache cache_;
  dns::Cache negative_cache_;  ///< NXDOMAIN denials (RFC 2308).
  dns::Cache nodata_cache_;    ///< NODATA denials (RFC 2308 section 2.2).
  EcsPolicy ecs_policy_ = EcsPolicy::kNever;
  ResolverStats stats_;
};

}  // namespace dohperf::resolver
