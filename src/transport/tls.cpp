#include "transport/tls.h"

namespace dohperf::transport {

std::string_view to_string(TlsVersion v) {
  switch (v) {
    case TlsVersion::kTls12:
      return "TLS 1.2";
    case TlsVersion::kTls13:
      return "TLS 1.3";
  }
  return "?";
}

netsim::Task<TlsSession> tls_handshake(const Connection& lower,
                                       TlsVersion version) {
  netsim::NetCtx& net = lower.net();
  TlsSession session(lower, version);
  const auto step = net.step({"tls_handshake", obs::Phase::kTlsHandshake,
                              &obs::MetricCounters::tls_handshakes});
  const netsim::SimTime start = net.sim.now();

  // Retransmit gate on the routed path beneath the stack (nullptr for
  // composites like the proxy Tunnel, whose legs gate themselves).
  if (const netsim::Path* path = lower.underlying_path()) {
    const netsim::RetryOutcome hello = co_await net.handshake_gate(
        path->a(), path->b(), kHelloRetryPolicy);
    if (!hello.delivered) {
      session.established = false;
      session.handshake_time = net.sim.now() - start;
      session.established_at = net.sim.now();
      co_return session;
    }
  }

  // ClientHello -> ServerHello (+EncryptedExtensions/Certificate/Finished
  // for 1.3; Certificate/ServerHelloDone for 1.2). Handshake messages are
  // quoted as full flight sizes, so they travel framed as-is.
  co_await lower.send_framed(kClientHelloBytes);
  co_await lower.recv_framed(kServerHelloBytes);

  if (version == TlsVersion::kTls12) {
    // ClientKeyExchange/Finished -> ChangeCipherSpec/Finished (the reply
    // is the first record-layer-framed message of the session).
    co_await lower.send_framed(kClientFinishedBytes);
    co_await session.recv(kServerFinishedBytes);
  }
  // For 1.3 the client Finished piggybacks on the first application data.

  session.handshake_time = net.sim.now() - start;
  session.established_at = net.sim.now();
  co_return session;
}

netsim::Task<TlsSession> tls_resume(const Connection& lower,
                                    TlsVersion version) {
  netsim::NetCtx& net = lower.net();
  TlsSession session(lower, version);
  session.resumed = true;
  const auto step = net.step({"tls_resume", obs::Phase::kTlsResume,
                              &obs::MetricCounters::tls_resumptions});
  const netsim::SimTime start = net.sim.now();

  if (const netsim::Path* path = lower.underlying_path()) {
    const netsim::RetryOutcome hello = co_await net.handshake_gate(
        path->a(), path->b(), kHelloRetryPolicy);
    if (!hello.delivered) {
      session.established = false;
      session.handshake_time = net.sim.now() - start;
      session.established_at = net.sim.now();
      co_return session;
    }
  }

  // One abbreviated round trip for either version: ClientHello+PSK ->
  // ServerHello..Finished (1.3), or ClientHello+ticket -> ServerHello/
  // CCS/Finished (1.2's abbreviated handshake skips the second flight).
  // No certificate travels, so both flights are small.
  co_await lower.send_framed(kResumeClientHelloBytes);
  co_await lower.recv_framed(kResumeServerHelloBytes);

  session.handshake_time = net.sim.now() - start;
  session.established_at = net.sim.now();
  co_return session;
}

}  // namespace dohperf::transport
