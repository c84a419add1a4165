#include "resolver/authoritative.h"

#include <utility>

#include "dns/ecs.h"

namespace dohperf::resolver {

AuthoritativeServer::AuthoritativeServer(dns::Zone zone, netsim::Site site,
                                         netsim::Duration processing)
    : zone_(std::move(zone)), site_(site), processing_(processing) {}

dns::Message AuthoritativeServer::handle(dns::Message query,
                                         std::uint32_t from_resolver) {
  ++query_count_;
  seen_resolvers_.insert(from_resolver);
  // Count ECS presence; deliberately discard the carried prefix.
  if (dns::extract_ecs(query).has_value()) ++ecs_query_count_;

  if (query.questions.empty()) {
    return dns::Message::make_response(std::move(query),
                                       dns::Rcode::kFormErr);
  }
  const dns::Question& q = query.questions.front();
  dns::ZoneLookup result = zone_.lookup(q.name, q.type);

  dns::Message resp =
      dns::Message::make_response(std::move(query), result.rcode);
  resp.header.aa = true;
  resp.header.ra = false;  // authoritative servers do not recurse
  resp.answers = std::move(result.answers);
  resp.authorities = std::move(result.authorities);
  return resp;
}

}  // namespace dohperf::resolver
