// A routed site pair: the layer-0 channel every connection rides on.
//
// Path owns the per-direction framing overhead (e.g. IP+UDP headers for
// datagram exchanges) and each direction's delay term, computed once at
// construction rather than per message, and delegates delivery, trace
// capture and the loss/retry state machine to its NetCtx, so flow code
// never sums header bytes or calls NetCtx::hop by hand.
#pragma once

#include <cstdint>

#include "netsim/netctx.h"

namespace dohperf::netsim {

class Path {
 public:
  Path(NetCtx& net, Site a, Site b)
      : net_(&net),
        a_(std::move(a)),
        b_(std::move(b)),
        forward_(one_way_term(a_, b_)),
        backward_(one_way_term(b_, a_)) {}

  /// Per-message framing bytes added in each direction (default none).
  void set_framing(std::size_t forward_bytes, std::size_t backward_bytes) {
    forward_framing_ = static_cast<std::uint32_t>(forward_bytes);
    backward_framing_ = static_cast<std::uint32_t>(backward_bytes);
  }

  /// One message a -> b; completes at arrival (captured by the NetCtx's
  /// trace sink, if any).
  Task<void> send(std::size_t payload_bytes) const {
    return net_->hop(a_, b_, forward_, payload_bytes + forward_framing_);
  }

  /// One message b -> a.
  Task<void> recv(std::size_t payload_bytes) const {
    return net_->hop(b_, a_, backward_, payload_bytes + backward_framing_);
  }

  /// Runs the datagram retry state machine for one exchange on this
  /// path: resolves once a copy of the datagram is cleared for delivery
  /// (charging any retransmit timers spent), or gives up per `policy`.
  [[nodiscard]] Task<RetryOutcome> deliver_with_retry(
      RetryPolicy policy) const {
    return net_->await_datagram_delivery(a_, b_, policy);
  }

  [[nodiscard]] const Site& a() const { return a_; }
  [[nodiscard]] const Site& b() const { return b_; }
  [[nodiscard]] NetCtx& net() const { return *net_; }
  [[nodiscard]] std::size_t forward_framing() const {
    return forward_framing_;
  }
  [[nodiscard]] std::size_t backward_framing() const {
    return backward_framing_;
  }

 private:
  NetCtx* net_;
  Site a_;
  Site b_;
  OneWayTerm forward_;
  OneWayTerm backward_;
  // Header octet counts. At 32 bits the two delay terms grow a Path by
  // 24 bytes, not 32, which keeps tcp_connect's frame (two Paths) in its
  // arena size class.
  std::uint32_t forward_framing_ = 0;
  std::uint32_t backward_framing_ = 0;
};

}  // namespace dohperf::netsim
