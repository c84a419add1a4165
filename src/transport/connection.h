// The stackable connection hierarchy.
//
// A Connection moves whole records between its two endpoints; layers
// (TCP, TLS, QUIC, the proxy tunnel) stack by delegating delivery to the
// layer beneath while contributing their own per-record framing bytes:
//
//   send(payload)            adds the whole stack's framing, then
//   send_framed(wire_bytes)  moves the finished record via the layer
//                            below (Path at the bottom).
//
// Flow code therefore states *what* travels (a serialized HTTP message,
// a DNS message's wire size) and the stack computes what that costs on
// the wire — no caller sums kRecordOverheadBytes by hand.
#pragma once

#include <string>
#include <string_view>

#include "netsim/path.h"
#include "transport/http.h"

namespace dohperf::transport {

/// IP + UDP header bytes charged per datagram on unframed paths.
inline constexpr std::size_t kUdpOverheadBytes = 28;

/// Two-octet length prefix per RFC 7858 DNS message framing.
inline constexpr std::size_t kLengthPrefixBytes = 2;

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = default;
  Connection(Connection&&) = default;
  Connection& operator=(const Connection&) = default;
  Connection& operator=(Connection&&) = default;
  virtual ~Connection() = default;

  [[nodiscard]] virtual netsim::NetCtx& net() const = 0;

  /// Short layer tag ("tcp", "tls", "tunnel", ...) naming the spans this
  /// layer opens and, through them, labelling the hops it causes.
  [[nodiscard]] virtual std::string_view layer_name() const {
    return "conn";
  }

  /// Per-record framing bytes this layer alone adds.
  [[nodiscard]] virtual std::size_t layer_overhead() const { return 0; }

  /// The single routed Path this connection ultimately rides on, or
  /// nullptr for composites (the proxy Tunnel spans two paths, each of
  /// which gates its own establishment). Fault-episode handshake gates
  /// use this to locate the endpoints whose loss/blackout state applies.
  [[nodiscard]] virtual const netsim::Path* underlying_path() const {
    return nullptr;
  }

  /// Per-record framing added by this layer and everything below it.
  [[nodiscard]] virtual std::size_t stack_overhead() const {
    return layer_overhead();
  }

  /// Moves one fully framed record client -> server; `wire_bytes` already
  /// includes all framing. Handshakes use these directly because their
  /// message sizes are quoted as on-the-wire datagrams.
  virtual netsim::Task<void> send_framed(std::size_t wire_bytes) const = 0;

  /// Moves one fully framed record server -> client.
  virtual netsim::Task<void> recv_framed(std::size_t wire_bytes) const = 0;

  /// Sends an application payload, adding the stack's framing. With a
  /// span context attached, the record travels inside a
  /// "<layer_name>.send" span (skipped entirely when tracing is off so
  /// the hot path stays a plain delegation).
  netsim::Task<void> send(std::size_t payload_bytes) const {
    const std::size_t wire = payload_bytes + stack_overhead();
    if (net().spans == nullptr) return send_framed(wire);
    return send_spanned(wire);
  }

  /// Receives an application payload, adding the stack's framing.
  netsim::Task<void> recv(std::size_t payload_bytes) const {
    const std::size_t wire = payload_bytes + stack_overhead();
    if (net().spans == nullptr) return recv_framed(wire);
    return recv_spanned(wire);
  }

  /// Message-typed conveniences: wire size from the serialized message.
  netsim::Task<void> send(const HttpRequest& msg) const {
    return send(msg.wire_size());
  }
  netsim::Task<void> send(const HttpResponse& msg) const {
    return send(msg.wire_size());
  }
  netsim::Task<void> recv(const HttpRequest& msg) const {
    return recv(msg.wire_size());
  }
  netsim::Task<void> recv(const HttpResponse& msg) const {
    return recv(msg.wire_size());
  }

 private:
  // Traced variants: same awaits, inside a step named after the layer
  // (step() copies the name when it opens the span).
  netsim::Task<void> send_spanned(std::size_t wire_bytes) const {
    const auto step = net().step({std::string(layer_name()) + ".send"});
    co_await send_framed(wire_bytes);
  }
  netsim::Task<void> recv_spanned(std::size_t wire_bytes) const {
    const auto step = net().step({std::string(layer_name()) + ".recv"});
    co_await recv_framed(wire_bytes);
  }
};

/// Layer 0: a connection carried directly on a routed Path.
class PathConnection : public Connection {
 public:
  explicit PathConnection(netsim::Path path) : path_(std::move(path)) {}

  [[nodiscard]] netsim::NetCtx& net() const override { return path_.net(); }
  [[nodiscard]] std::string_view layer_name() const override {
    return "path";
  }
  netsim::Task<void> send_framed(std::size_t wire_bytes) const override {
    return path_.send(wire_bytes);
  }
  netsim::Task<void> recv_framed(std::size_t wire_bytes) const override {
    return path_.recv(wire_bytes);
  }
  [[nodiscard]] const netsim::Path* underlying_path() const override {
    return &path_;
  }

  [[nodiscard]] const netsim::Path& path() const { return path_; }

 private:
  netsim::Path path_;
};

/// A protocol layer stacked on a lower connection: contributes its own
/// record overhead and delegates delivery downward. Non-owning — the
/// lower connection must outlive this layer.
class LayeredConnection : public Connection {
 public:
  explicit LayeredConnection(const Connection& lower) : lower_(&lower) {}

  [[nodiscard]] netsim::NetCtx& net() const override {
    return lower_->net();
  }
  [[nodiscard]] std::size_t stack_overhead() const override {
    return layer_overhead() + lower_->stack_overhead();
  }
  netsim::Task<void> send_framed(std::size_t wire_bytes) const override {
    return lower_->send_framed(wire_bytes);
  }
  netsim::Task<void> recv_framed(std::size_t wire_bytes) const override {
    return lower_->recv_framed(wire_bytes);
  }
  [[nodiscard]] const netsim::Path* underlying_path() const override {
    return lower_->underlying_path();
  }

  [[nodiscard]] const Connection& lower() const { return *lower_; }

 private:
  const Connection* lower_;
};

/// RFC 7858-style message framing: each DNS message is preceded by a
/// two-octet length field (DoT rides this over a TlsSession).
class LengthPrefixedChannel : public LayeredConnection {
 public:
  using LayeredConnection::LayeredConnection;
  [[nodiscard]] std::string_view layer_name() const override {
    return "dns-framing";
  }
  [[nodiscard]] std::size_t layer_overhead() const override {
    return kLengthPrefixBytes;
  }
};

}  // namespace dohperf::transport
