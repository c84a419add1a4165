// Hierarchical flow spans over simulated time.
//
// A SpanContext collects the span tree of one logical flow (one
// measurement session, one tunnel, one page load): every instrumented
// layer — NetCtx::hop at the bottom, the Connection stack, the proxy
// Tunnel, and the measurement flows on top — opens a named span whose
// start/end are *sim-time* points, so a trace explains where simulated
// time goes, not where host CPU went. Spans strictly nest: a span opened
// while another is open becomes its child, and the innermost open span
// labels every hop captured beneath it (the "which layer sent this?"
// question a flat packet capture cannot answer).
//
// Recording is pure observation: it never consumes RNG draws, schedules
// events, or advances the clock, so enabling tracing cannot perturb a
// single output bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geo/coordinates.h"
#include "netsim/time.h"

namespace dohperf::obs {

/// Index of a span within its SpanContext.
using SpanId = std::uint32_t;

/// Sentinel parent of root spans.
inline constexpr SpanId kNoSpan = 0xFFFFFFFFu;

/// One node of the span tree. Hop spans (`hop == true`) are leaves that
/// carry one message's wire-level detail: byte count and the two site
/// positions.
struct Span {
  SpanId id = 0;
  SpanId parent = kNoSpan;
  std::string name;
  netsim::SimTime start{};
  netsim::SimTime end{};
  std::size_t bytes = 0;
  bool hop = false;
  geo::LatLon from{};
  geo::LatLon to{};

  [[nodiscard]] double duration_ms() const {
    return netsim::ms_between(start, end);
  }

  friend bool operator==(const Span&, const Span&) = default;
};

/// Collects one flow's span tree. Spans are stored in open order; ids are
/// stable indices into spans().
class SpanContext {
 public:
  /// Opens a span as a child of the innermost open span (or a root).
  SpanId open(std::string name, netsim::SimTime now);

  /// Closes `id`, which must be the innermost open span (spans strictly
  /// nest; out-of-order closes indicate a broken flow and are ignored
  /// after recording, so a trace of a buggy flow is still inspectable).
  void close(SpanId id, netsim::SimTime now);

  /// Records an already-delimited hop leaf under the innermost open span.
  void record_hop(netsim::SimTime sent, netsim::SimTime delivered,
                  geo::LatLon from, geo::LatLon to, std::size_t bytes);

  /// Innermost open span id, or kNoSpan.
  [[nodiscard]] SpanId current() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Number of spans opened but not yet closed.
  [[nodiscard]] std::size_t open_count() const { return stack_.size(); }
  [[nodiscard]] bool empty() const { return spans_.empty(); }

  /// The flat packet capture: every hop leaf, in capture order (its
  /// parent span names the layer that sent it).
  [[nodiscard]] std::vector<const Span*> hop_view() const;

  void clear();

 private:
  std::vector<Span> spans_;
  std::vector<SpanId> stack_;
};

/// `spans` with every start and end moved so that `epoch` becomes time
/// zero. Each simulator has its own absolute clock, so only
/// epoch-relative times are comparable, and reproducible, across shard
/// layouts and replays.
[[nodiscard]] std::vector<Span> rebase_to_epoch(std::vector<Span> spans,
                                                netsim::SimTime epoch);

}  // namespace dohperf::obs
