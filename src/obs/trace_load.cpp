#include "obs/trace_load.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>

#include "obs/json.h"
#include "obs/trace_export.h"

namespace dohperf::obs {
namespace {

using json::Value;

/// Largest ts, dur and bytes: every integer up to 2^53 is a double.
constexpr double kMaxCount = 9007199254740992.0;
constexpr const char* kCountRule =
    ": expected an integer from 0 to 9007199254740992";

TraceLoadResult fail(const std::string& origin, const std::string& what) {
  TraceLoadResult result;
  result.error = origin + ": " + what;
  return result;
}

/// `v` as an integer from 0 to `max`; std::nullopt when absent, not a
/// number, fractional or out of range.
std::optional<std::int64_t> integer(const Value* v, double max) {
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double x = v->as_number();
  if (!(x >= 0.0 && x <= max) || x != std::floor(x)) return std::nullopt;
  return static_cast<std::int64_t>(x);
}

/// One traceEvents element -> `span`; "" or "<field>: <defect>". `seen`
/// holds the ids of the earlier events.
std::string read_event(const Value& event,
                       const std::unordered_set<SpanId>& seen, Span& span) {
  const Value* name = event.get("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return "name: expected a non-empty string";
  }
  span.name = name->as_string();
  const std::string cat = event.string_or("cat", "");
  if (cat != "span" && cat != "hop") return "cat: expected \"span\" or \"hop\"";
  span.hop = cat == "hop";
  const std::optional<std::int64_t> ts = integer(event.get("ts"), kMaxCount);
  if (!ts) return std::string("ts") + kCountRule;
  const std::optional<std::int64_t> dur = integer(event.get("dur"), kMaxCount);
  if (!dur) return std::string("dur") + kCountRule;
  span.start = netsim::SimTime{netsim::Duration{*ts}};
  span.end = span.start + netsim::Duration{*dur};

  const Value* args = event.get("args");
  if (args == nullptr || !args->is_object()) {
    return "args: expected an object";
  }
  const std::optional<std::int64_t> id =
      integer(args->get("id"), kNoSpan - 1.0);
  if (!id) return "args.id: expected an integer from 0 to 4294967294";
  span.id = static_cast<SpanId>(*id);
  if (seen.contains(span.id)) {
    return "args.id: " + std::to_string(span.id) + " is not unique";
  }
  const Value* parent = args->get("parent");
  const std::optional<std::int64_t> parent_id =
      integer(parent, kNoSpan - 1.0);
  if (parent_id && seen.contains(static_cast<SpanId>(*parent_id))) {
    span.parent = static_cast<SpanId>(*parent_id);
  } else if (parent != nullptr && parent->is_null()) {
    span.parent = kNoSpan;
  } else {
    return "args.parent: expected null or the id of an earlier event";
  }
  if (const Value* bytes = args->get("bytes"); bytes != nullptr) {
    const std::optional<std::int64_t> count = integer(bytes, kMaxCount);
    if (!count) return std::string("args.bytes") + kCountRule;
    span.bytes = static_cast<std::size_t>(*count);
  }
  return "";
}

}  // namespace

TraceLoadResult parse_trace(const std::string& text,
                            const std::string& origin) {
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    return fail(origin, "empty trace");
  }
  std::string error;
  const std::optional<Value> doc = json::parse(text, &error);
  if (!doc) {
    return fail(origin, "invalid JSON (truncated or malformed) at " + error);
  }
  const Value* events = doc->get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(origin, "no traceEvents array");
  }
  TraceLoadResult result;
  std::unordered_set<SpanId> seen;
  for (const Value& event : events->as_array()) {
    const std::string at =
        "traceEvents[" + std::to_string(result.spans.size()) + "]";
    if (!event.is_object()) return fail(origin, at + ": expected an object");
    Span span;
    if (const std::string why = read_event(event, seen, span); !why.empty()) {
      return fail(origin, at + "." + why);
    }
    seen.insert(span.id);
    result.spans.push_back(std::move(span));
  }
  if (result.spans.empty()) return fail(origin, "trace contains no spans");
  return result;
}

TraceLoadResult load_trace_file(const std::string& path) {
  const std::optional<std::string> text = read_text_file(path);
  if (!text) return fail(path, "cannot open");
  return parse_trace(*text, path);
}

std::vector<const Span*> flow_phases(const std::vector<Span>& spans,
                                     const Span& root) {
  std::vector<const Span*> phases;
  for (const Span& span : spans) {
    if (span.parent == root.id && !span.hop) phases.push_back(&span);
  }
  std::sort(phases.begin(), phases.end(), [](const Span* a, const Span* b) {
    return a->start < b->start;
  });
  return phases;
}

}  // namespace dohperf::obs
