#include "transport/quic.h"

namespace dohperf::transport {

netsim::Task<QuicConnection> quic_connect(netsim::NetCtx& net,
                                          const netsim::Site& client,
                                          const netsim::Site& server) {
  QuicConnection conn{netsim::Path(net, client, server)};
  const auto step = net.step({"quic_handshake", obs::Phase::kQuicHandshake,
                              &obs::MetricCounters::quic_handshakes});
  const netsim::SimTime start = net.sim.now();
  const netsim::RetryOutcome initial =
      co_await net.handshake_gate(client, server, kInitialRetryPolicy);
  if (!initial.delivered) {
    conn.established = false;
    conn.handshake_time = net.sim.now() - start;
    conn.established_at = net.sim.now();
    co_return conn;
  }
  // Handshake datagram sizes are quoted on-the-wire; no added framing.
  co_await conn.send_framed(kQuicClientInitialBytes);
  co_await conn.recv_framed(kQuicServerHandshakeBytes);
  conn.zero_rtt = false;
  conn.handshake_time = net.sim.now() - start;
  conn.established_at = net.sim.now();
  co_return conn;
}

netsim::Task<QuicConnection> quic_resume(netsim::NetCtx& net,
                                         const netsim::Site& client,
                                         const netsim::Site& server) {
  // 0-RTT: nothing travels ahead of the first request; the connection is
  // usable immediately (the ticket was cached from a prior session).
  QuicConnection conn{netsim::Path(net, client, server)};
  conn.zero_rtt = true;
  conn.handshake_time = netsim::Duration::zero();
  conn.established_at = net.sim.now();
  co_return conn;
}

}  // namespace dohperf::transport
