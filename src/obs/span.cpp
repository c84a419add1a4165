#include "obs/span.h"

namespace dohperf::obs {

SpanId SpanContext::open(std::string name, netsim::SimTime now) {
  const auto id = static_cast<SpanId>(spans_.size());
  Span span;
  span.id = id;
  span.parent = current();
  span.name = std::move(name);
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  return id;
}

void SpanContext::close(SpanId id, netsim::SimTime now) {
  if (id >= spans_.size()) return;
  spans_[id].end = now;
  // Strict nesting: the closed span should be the stack top. Tolerate
  // (and unwind past) mismatches so a malformed flow still exports.
  while (!stack_.empty()) {
    const SpanId top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
    spans_[top].end = now;
  }
}

void SpanContext::record_hop(netsim::SimTime sent, netsim::SimTime delivered,
                             geo::LatLon from, geo::LatLon to,
                             std::size_t bytes) {
  const auto id = static_cast<SpanId>(spans_.size());
  Span span;
  span.id = id;
  span.parent = current();
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
  stack_.clear();
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
