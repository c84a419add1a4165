// Hierarchical flow spans over simulated time.
//
// A SpanContext collects the span tree of one logical flow (one
// measurement session, one tunnel, one page load): every instrumented
// layer — NetCtx::hop at the bottom, the Connection stack, the proxy
// Tunnel, and the measurement flows on top — opens a named span whose
// start/end are *sim-time* points, so a trace explains where simulated
// time goes, not where host CPU went. Every span and hop names its parent
// when it is recorded: the innermost open step of the task that made it
// (netsim::NetCtx::span), so concurrent tasks of one flow, such as a page
// load's domains, each build their own branch, and a hop's parent names
// the layer that sent it (the "which layer sent this?" question a flat
// packet capture cannot answer).
//
// Recording is pure observation: it never consumes RNG draws, schedules
// events, or advances the clock, so enabling tracing cannot perturb a
// single output bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
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
  /// Opens a span as a child of `parent` (kNoSpan: a root).
  SpanId open(std::string name, SpanId parent, netsim::SimTime now);

  /// Opens a span as a child of the innermost span this overload opened
  /// that is still open (none: a root), for the nested scopes of one
  /// task, such as a host-clock tracer's call boundaries. Spans opened
  /// this way close innermost first.
  SpanId open(std::string name, netsim::SimTime now) {
    innermost_ = open(std::move(name), innermost_, now);
    return innermost_;
  }

  /// Closes `id`, which was opened and not yet closed.
  void close(SpanId id, netsim::SimTime now);

  /// Records an already-delimited hop leaf under `parent`.
  void record_hop(SpanId parent, netsim::SimTime sent,
                  netsim::SimTime delivered, geo::LatLon from,
                  geo::LatLon to, std::size_t bytes);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Number of spans opened but not yet closed.
  [[nodiscard]] std::size_t open_count() const { return open_; }
  [[nodiscard]] bool empty() const { return spans_.empty(); }

  /// The flat packet capture: every hop leaf, in capture order (its
  /// parent span names the layer that sent it).
  [[nodiscard]] std::vector<const Span*> hop_view() const;

  void clear();

 private:
  std::vector<Span> spans_;
  std::size_t open_ = 0;
  /// The two-argument open()'s parent for the next span.
  SpanId innermost_ = kNoSpan;
};

/// `spans` with every start and end moved so that `epoch` becomes time
/// zero. Each simulator has its own absolute clock, so only
/// epoch-relative times are comparable, and reproducible, across shard
/// layouts and replays.
[[nodiscard]] std::vector<Span> rebase_to_epoch(std::vector<Span> spans,
                                                netsim::SimTime epoch);

}  // namespace dohperf::obs
