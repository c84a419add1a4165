#include "resolver/doh_server.h"

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dns/errors.h"
#include "dns/wire.h"
#include "transport/base64.h"

namespace dohperf::resolver {
namespace {

transport::HttpResponse bad_request(std::string reason) {
  transport::HttpResponse resp;
  resp.status = 400;
  resp.reason = "Bad Request";
  resp.headers.add("content-type", "text/plain");
  resp.body = std::move(reason);
  resp.headers.add("content-length", std::to_string(resp.body.size()));
  return resp;
}

/// Decodes the DNS query `request` carries into `query`; the error
/// response instead when the request is malformed.
std::optional<transport::HttpResponse> read_query(
    const transport::HttpRequest& request, dns::Message& query) {
  if (request.target.rfind("/dns-query", 0) != 0) {
    return bad_request("unknown path");
  }
  // Filled and read back before returning: never held across a co_await.
  thread_local std::vector<std::uint8_t> decoded;
  std::span<const std::uint8_t> wire;
  if (request.method == "GET") {
    const auto dns_param = transport::query_param(request.target, "dns");
    if (!dns_param) return bad_request("missing dns parameter");
    if (!transport::base64url_decode_into(*dns_param, decoded)) {
      return bad_request("invalid base64url");
    }
    wire = decoded;
  } else if (request.method == "POST") {
    // RFC 8484 POST binding: the raw message travels as the body.
    const auto content_type = request.headers.get("content-type");
    if (!content_type || *content_type != "application/dns-message") {
      return bad_request("POST requires application/dns-message");
    }
    wire = {reinterpret_cast<const std::uint8_t*>(request.body.data()),
            request.body.size()};
  } else {
    transport::HttpResponse resp;
    resp.status = 405;
    resp.reason = "Method Not Allowed";
    return resp;
  }

  try {
    query = dns::decode(wire);
  } catch (const dns::ParseError&) {
    return bad_request("malformed DNS message");
  }
  return std::nullopt;
}

}  // namespace

DohServer::DohServer(std::string hostname, netsim::Site frontend_site,
                     transport::TlsVersion tls, RecursiveResolver resolver)
    : hostname_(std::move(hostname)),
      frontend_site_(frontend_site),
      tls_(tls),
      resolver_(std::move(resolver)) {}

netsim::Task<transport::HttpResponse> DohServer::handle(
    netsim::NetCtx& net, transport::HttpRequest request,
    std::uint32_t client_address) {
  ++served_;
  const auto step = net.step({"doh_server.handle"});

  dns::Message query;
  if (auto rejected = read_query(request, query)) {
    co_return std::move(*rejected);
  }
  const dns::Message answer =
      co_await resolver_.resolve(net, std::move(query), client_address);
  co_return dns_message_response(answer, hostname_);
}

transport::HttpResponse dns_message_response(const dns::Message& answer,
                                             const std::string& server) {
  // Filled and read back before returning: never held across a co_await.
  thread_local std::vector<std::uint8_t> wire;
  dns::encode_into(answer, wire);
  transport::HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("content-type", "application/dns-message");
  resp.headers.add("server", server);
  resp.body.assign(wire.begin(), wire.end());
  resp.headers.add("content-length", std::to_string(resp.body.size()));
  return resp;
}

}  // namespace dohperf::resolver
