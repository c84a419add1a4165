#include "proxy/tunnel.h"

#include <string>

#include "transport/http.h"

namespace dohperf::proxy {
namespace {

/// The serialized 200 OK carrying both timing headers, written into one
/// buffer with the writers HttpResponse::serialize() uses.
std::string established_reply(const TunTimeline& tun,
                              const BrightDataTimeline& bd) {
  // Each header value is formatted into this reused buffer first.
  thread_local std::string value;
  std::string wire;
  wire.reserve(192);
  transport::append_status_line(wire, "HTTP/1.1", 200, "OK");
  value.clear();
  append_tun_timeline(value, tun);
  transport::append_header(wire, kTunTimelineHeader, value);
  value.clear();
  append_timeline(value, bd);
  transport::append_header(wire, kTimelineHeader, value);
  wire += "\r\n";  // end of the header section
  return wire;
}

}  // namespace

netsim::Task<void> Tunnel::send_framed(std::size_t wire_bytes) const {
  const auto step = net().step({"tunnel.send"});
  co_await client_sp_.send(wire_bytes);
  co_await net().process(netsim::from_ms(kSuperProxyForwardMs));
  co_await sp_exit_.send(wire_bytes);
  co_await net().process(netsim::from_ms(kExitForwardingMs));
}

netsim::Task<void> Tunnel::recv_framed(std::size_t wire_bytes) const {
  const auto step = net().step({"tunnel.recv"});
  co_await net().process(netsim::from_ms(kExitForwardingMs));
  co_await sp_exit_.recv(wire_bytes);
  co_await net().process(netsim::from_ms(kSuperProxyForwardMs));
  co_await client_sp_.recv(wire_bytes);
}

netsim::Task<void> Tunnel::connect_to_super_proxy(
    const transport::HttpRequest& connect_req) {
  const auto step =
      net().step({"tunnel_connect", obs::Phase::kTunnelConnect});
  co_await client_sp_.send(connect_req.wire_size());
  overheads_ = BrightDataNetwork::sample_overheads(net().rng);
  co_await net().process(netsim::from_ms(overheads_.total_ms()));
}

netsim::Task<void> Tunnel::forward_connect(
    const transport::HttpRequest& connect_req) const {
  const auto step =
      net().step({"tunnel_forward", obs::Phase::kTunnelConnect});
  co_await sp_exit_.send(connect_req.wire_size());
  co_await net().process(netsim::from_ms(kExitForwardingMs));
}

netsim::Task<std::string> Tunnel::send_established_reply(
    const TunTimeline& tun) const {
  const auto step = net().step({"tunnel_established_reply",
                                 obs::Phase::kTunnelConnect,
                                 &obs::MetricCounters::tunnels_established});
  std::string wire = established_reply(
      tun, {overheads_.auth_ms, overheads_.init_ms, overheads_.select_ms,
            overheads_.vld_ms});

  // Both legs carry the same serialized response.
  co_await recv_framed(wire.size());
  co_return wire;
}

}  // namespace dohperf::proxy
