#include "resolver/recursive.h"

#include <chrono>
#include <utility>

#include "dns/ecs.h"
#include "dns/wire.h"
#include "netsim/path.h"
#include "transport/connection.h"

namespace dohperf::resolver {

RecursiveResolver::RecursiveResolver(std::string name, netsim::Site site,
                                     std::uint32_t address,
                                     AuthoritativeServer* authority,
                                     netsim::Duration processing)
    : name_(std::move(name)),
      site_(site),
      address_(address),
      authority_(authority),
      processing_(processing) {}

netsim::Task<dns::Message> RecursiveResolver::resolve(
    netsim::NetCtx& net, dns::Message query, std::uint32_t client_address) {
  ++stats_.queries;
  // Provisionally a miss (the common cache-buster case); every hit
  // branch relabels the live frames — this one and any stub_resolve
  // frame beneath — so the whole resolution path carries the outcome.
  const auto step =
      net.step({"recursive_resolve", obs::Phase::kDnsCacheMiss});

  if (query.questions.empty()) {
    ++stats_.failures;
    co_return dns::Message::make_response(std::move(query),
                                          dns::Rcode::kFormErr);
  }
  // `query` lives in this frame, so the question is read in place; each
  // exit path then moves the question section into its response.
  const dns::Question& q = query.questions.front();

  if (auto cached = cache_.lookup(net.sim.now(), q.name, q.type)) {
    ++stats_.cache_hits;
    net.attribution.relabel_open(obs::Phase::kDnsCacheMiss,
                                 obs::Phase::kDnsCacheHit);
    // Hot-name hits are served from the frontend cache: cheap unless a
    // brownout episode has the whole frontend overloaded.
    co_await net.process_at(site_, cache_hit_cost());
    dns::Message resp = dns::Message::make_response(std::move(query));
    resp.answers = std::move(*cached);
    co_return resp;
  }

  // Negative caches (RFC 2308): a recent NXDOMAIN or NODATA answers
  // immediately with the cached SOA and the original rcode.
  if (auto negative =
          negative_cache_.lookup(net.sim.now(), q.name, q.type)) {
    ++stats_.negative_hits;
    net.attribution.relabel_open(obs::Phase::kDnsCacheMiss,
                                 obs::Phase::kDnsCacheHit);
    co_await net.process_at(site_, cache_hit_cost());
    dns::Message resp =
        dns::Message::make_response(std::move(query), dns::Rcode::kNxDomain);
    resp.authorities = std::move(*negative);
    co_return resp;
  }
  if (auto nodata = nodata_cache_.lookup(net.sim.now(), q.name, q.type)) {
    ++stats_.negative_hits;
    net.attribution.relabel_open(obs::Phase::kDnsCacheMiss,
                                 obs::Phase::kDnsCacheHit);
    co_await net.process_at(site_, cache_hit_cost());
    dns::Message resp = dns::Message::make_response(std::move(query));
    resp.authorities = std::move(*nodata);
    co_return resp;
  }

  ++stats_.recursions;
  co_await net.process_at(site_, processing_);
  // Forward the query to the authoritative server as real wire bytes.
  dns::Message upstream = dns::Message::make_query(query.header.id, q.name,
                                                   q.type);
  if (ecs_policy_ == EcsPolicy::kForwardSlash24 && client_address != 0) {
    dns::attach_ecs(upstream, dns::make_ecs_option(client_address, 24));
  }
  netsim::Path authority_path(net, site_, authority_->site());
  authority_path.set_framing(transport::kUdpOverheadBytes,
                             transport::kUdpOverheadBytes);
  // Lost upstream datagrams retry on an ~800 ms exponential timer; an
  // unreachable authority becomes SERVFAIL after the schedule runs dry.
  const netsim::RetryOutcome upstream_delivery =
      co_await authority_path.deliver_with_retry(
          {std::chrono::milliseconds(800), 4});
  if (!upstream_delivery.delivered) {
    ++stats_.failures;
    co_return dns::Message::make_response(std::move(query),
                                          dns::Rcode::kServFail);
  }
  co_await authority_path.send(dns::wire_size(upstream));

  co_await net.process_at(authority_->site(),
                          authority_->processing_delay());
  dns::Message auth_resp =
      authority_->handle(std::move(upstream), address_);

  co_await authority_path.recv(dns::wire_size(auth_resp));

  if (auth_resp.header.rcode == dns::Rcode::kNoError &&
      !auth_resp.answers.empty()) {
    cache_.insert(net.sim.now(), q.name, q.type, auth_resp.answers);
  } else if (auth_resp.header.rcode == dns::Rcode::kNxDomain &&
             !auth_resp.authorities.empty()) {
    // Cache the denial for the SOA minimum (RFC 2308).
    negative_cache_.insert(net.sim.now(), q.name, q.type,
                           auth_resp.authorities);
    ++stats_.failures;
  } else if (auth_resp.header.rcode == dns::Rcode::kNoError &&
             auth_resp.answers.empty() &&
             !auth_resp.authorities.empty()) {
    // NODATA is negatively cacheable too (RFC 2308 section 2.2); the
    // SOA's minimum bounds the lifetime exactly as for NXDOMAIN.
    nodata_cache_.insert(net.sim.now(), q.name, q.type,
                         auth_resp.authorities);
  } else if (auth_resp.header.rcode != dns::Rcode::kNoError) {
    ++stats_.failures;
  }

  dns::Message resp = dns::Message::make_response(std::move(query),
                                                  auth_resp.header.rcode);
  resp.answers = std::move(auth_resp.answers);
  resp.authorities = std::move(auth_resp.authorities);
  co_return resp;
}

}  // namespace dohperf::resolver
