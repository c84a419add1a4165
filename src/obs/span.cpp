#include "obs/span.h"

namespace dohperf::obs {

SpanId SpanContext::open(std::string name, SpanId parent,
                         netsim::SimTime now) {
  const auto id = static_cast<SpanId>(spans_.size());
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  ++open_;
  return id;
}

void SpanContext::close(SpanId id, netsim::SimTime now) {
  if (id >= spans_.size()) return;
  spans_[id].end = now;
  --open_;
  if (id == innermost_) innermost_ = spans_[id].parent;
}

void SpanContext::record_hop(SpanId parent, netsim::SimTime sent,
                             netsim::SimTime delivered, geo::LatLon from,
                             geo::LatLon to, std::size_t bytes) {
  const auto id = static_cast<SpanId>(spans_.size());
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = "hop";
  span.start = sent;
  span.end = delivered;
  span.bytes = bytes;
  span.hop = true;
  span.from = from;
  span.to = to;
  spans_.push_back(std::move(span));
}

std::vector<const Span*> SpanContext::hop_view() const {
  std::vector<const Span*> hops;
  for (const Span& span : spans_) {
    if (span.hop) hops.push_back(&span);
  }
  return hops;
}

void SpanContext::clear() {
  spans_.clear();
  open_ = 0;
  innermost_ = kNoSpan;
}

std::vector<Span> rebase_to_epoch(std::vector<Span> spans,
                                  netsim::SimTime epoch) {
  for (Span& span : spans) {
    span.start = netsim::SimTime{} + (span.start - epoch);
    span.end = netsim::SimTime{} + (span.end - epoch);
  }
  return spans;
}

}  // namespace dohperf::obs
