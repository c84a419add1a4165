#include "transport/tcp.h"

namespace dohperf::transport {

netsim::Task<TcpConnection> tcp_connect(netsim::NetCtx& net,
                                        const netsim::Site& client,
                                        const netsim::Site& server) {
  TcpConnection conn{netsim::Path(net, client, server)};
  const auto step = net.step({"tcp_handshake", obs::Phase::kTcpHandshake,
                              &obs::MetricCounters::tcp_handshakes});
  const netsim::SimTime start = net.sim.now();
  const netsim::RetryOutcome syn =
      co_await net.handshake_gate(client, server, kSynRetryPolicy);
  if (!syn.delivered) {
    conn.established = false;
    conn.handshake_time = net.sim.now() - start;
    conn.established_at = net.sim.now();
    co_return conn;
  }
  co_await conn.send_framed(kSynBytes);     // SYN
  co_await conn.recv_framed(kSynAckBytes);  // SYN/ACK
  conn.handshake_time = net.sim.now() - start;
  conn.established_at = net.sim.now();
  co_return conn;
}

}  // namespace dohperf::transport
