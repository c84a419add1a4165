#include "proxy/tunnel.h"

namespace dohperf::proxy {

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
  transport::HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add(std::string(kTunTimelineHeader),
                   format_tun_timeline(tun));
  BrightDataTimeline bd;
  bd.auth_ms = overheads_.auth_ms;
  bd.init_ms = overheads_.init_ms;
  bd.select_ms = overheads_.select_ms;
  bd.vld_ms = overheads_.vld_ms;
  resp.headers.add(std::string(kTimelineHeader), format_timeline(bd));

  // Both legs carry the same serialized response.
  std::string wire = resp.serialize();
  co_await recv_framed(wire.size());
  co_return wire;
}

}  // namespace dohperf::proxy
