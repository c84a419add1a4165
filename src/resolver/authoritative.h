// The study's authoritative name server ("a.com", BIND9 on Linux in the
// paper, located in the USA).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "dns/message.h"
#include "dns/zone.h"
#include "netsim/latency.h"
#include "netsim/time.h"

namespace dohperf::resolver {

/// Serves one zone authoritatively and records which recursive resolvers
/// query it (the paper observed 1,896 unique recursive resolvers at its
/// authoritative server).
class AuthoritativeServer {
 public:
  AuthoritativeServer(dns::Zone zone, netsim::Site site,
                      netsim::Duration processing = netsim::from_ms(0.3));

  /// Answers `query` from zone data. `from_resolver` is the querying
  /// resolver's address, recorded for the dataset statistics.
  [[nodiscard]] dns::Message handle(dns::Message query,
                                    std::uint32_t from_resolver);

  [[nodiscard]] const netsim::Site& site() const { return site_; }
  [[nodiscard]] netsim::Duration processing_delay() const {
    return processing_;
  }
  [[nodiscard]] const dns::Zone& zone() const { return zone_; }
  [[nodiscard]] std::uint64_t query_count() const { return query_count_; }
  /// Queries that carried an EDNS Client Subnet option. Only the count is
  /// kept — the paper's ethics stance ("we take careful note not to
  /// inspect any potentially sensitive client data (e.g., client IPs
  /// present in the ECS-client-subnet DNS extension)").
  [[nodiscard]] std::uint64_t ecs_query_count() const {
    return ecs_query_count_;
  }
  [[nodiscard]] std::size_t unique_resolvers() const {
    return seen_resolvers_.size();
  }

 private:
  dns::Zone zone_;
  netsim::Site site_;
  netsim::Duration processing_;
  std::uint64_t query_count_ = 0;
  std::uint64_t ecs_query_count_ = 0;
  std::unordered_set<std::uint32_t> seen_resolvers_;
};

}  // namespace dohperf::resolver
