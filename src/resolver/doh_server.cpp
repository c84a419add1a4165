#include "resolver/doh_server.h"

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

}  // namespace

DohServer::DohServer(std::string hostname, netsim::Site frontend_site,
                     RecursiveResolver resolver)
    : hostname_(std::move(hostname)),
      frontend_site_(frontend_site),
      resolver_(std::move(resolver)) {}

netsim::Task<transport::HttpResponse> DohServer::handle(
    netsim::NetCtx& net, transport::HttpRequest request,
    std::uint32_t client_address) {
  ++served_;
  const auto step = net.step({"doh_server.handle"});

  if (request.target.rfind("/dns-query", 0) != 0) {
    co_return bad_request("unknown path");
  }

  std::vector<std::uint8_t> wire_bytes;
  if (request.method == "GET") {
    const auto dns_param = transport::query_param(request.target, "dns");
    if (!dns_param) co_return bad_request("missing dns parameter");
    auto decoded = transport::base64url_decode(*dns_param);
    if (!decoded) co_return bad_request("invalid base64url");
    wire_bytes = std::move(*decoded);
  } else if (request.method == "POST") {
    // RFC 8484 POST binding: the raw message travels as the body.
    const auto content_type = request.headers.get("content-type");
    if (!content_type || *content_type != "application/dns-message") {
      co_return bad_request("POST requires application/dns-message");
    }
    wire_bytes.assign(request.body.begin(), request.body.end());
  } else {
    transport::HttpResponse resp;
    resp.status = 405;
    resp.reason = "Method Not Allowed";
    co_return resp;
  }

  dns::Message query;
  try {
    query = dns::decode(wire_bytes);
  } catch (const dns::ParseError&) {
    co_return bad_request("malformed DNS message");
  }

  dns::Message answer =
      co_await resolver_.resolve(net, std::move(query), client_address);

  const std::vector<std::uint8_t> body_wire = dns::encode(answer);
  transport::HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("content-type", "application/dns-message");
  resp.headers.add("server", hostname_);
  resp.body.assign(body_wire.begin(), body_wire.end());
  resp.headers.add("content-length", std::to_string(resp.body.size()));
  co_return resp;
}

}  // namespace dohperf::resolver
