#include "obs/trace_load.h"

#include <optional>
#include <utility>

#include "obs/json.h"
#include "obs/trace_export.h"

namespace dohperf::obs {
namespace {

using json::Value;

std::int64_t id_or(const Value& obj, const char* key, std::int64_t fallback) {
  const Value* v = obj.get(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return static_cast<std::int64_t>(v->as_number());
}

TraceLoadResult fail(const std::string& origin, const std::string& what) {
  TraceLoadResult result;
  result.error = origin + ": " + what;
  return result;
}

/// One Perfetto trace_event object ("ph":"X") -> SpanRec; a diagnostic
/// string on any shape defect (the old loader skipped these silently).
std::optional<SpanRec> from_trace_event(const Value& event,
                                        std::string& why) {
  if (!event.is_object()) {
    why = "not an object";
    return std::nullopt;
  }
  const Value* args = event.get("args");
  if (args == nullptr || !args->is_object()) {
    why = "missing args object";
    return std::nullopt;
  }
  SpanRec rec;
  rec.id = id_or(*args, "id", SpanRec::kNoParent);
  if (rec.id == SpanRec::kNoParent) {
    why = "args.id missing or not a number";
    return std::nullopt;
  }
  rec.parent = id_or(*args, "parent", SpanRec::kNoParent);
  rec.name = event.string_or("name", "");
  if (rec.name.empty()) {
    why = "missing name";
    return std::nullopt;
  }
  rec.start_us = static_cast<std::int64_t>(event.number_or("ts", 0));
  rec.end_us =
      rec.start_us + static_cast<std::int64_t>(event.number_or("dur", 0));
  rec.hop = event.string_or("cat", "span") == "hop";
  rec.bytes = static_cast<std::uint64_t>(args->number_or("bytes", 0));
  return rec;
}

/// One JSONL line object -> SpanRec, same strictness.
std::optional<SpanRec> from_jsonl_object(const Value& obj, std::string& why) {
  SpanRec rec;
  rec.id = id_or(obj, "id", SpanRec::kNoParent);
  if (rec.id == SpanRec::kNoParent) {
    why = "id missing or not a number";
    return std::nullopt;
  }
  rec.parent = id_or(obj, "parent", SpanRec::kNoParent);
  rec.name = obj.string_or("name", "");
  if (rec.name.empty()) {
    why = "missing name";
    return std::nullopt;
  }
  rec.start_us = static_cast<std::int64_t>(obj.number_or("start_us", 0));
  rec.end_us = static_cast<std::int64_t>(obj.number_or("end_us", 0));
  const Value* hop = obj.get("hop");
  rec.hop = hop != nullptr && hop->is_bool() && hop->as_bool();
  rec.bytes = static_cast<std::uint64_t>(obj.number_or("bytes", 0));
  return rec;
}

}  // namespace

namespace {

TraceLoadResult parse_perfetto(const Value& doc, const std::string& origin) {
  TraceLoadResult result;
  std::string why;
  const Value* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(origin, "no traceEvents array");
  }
  std::size_t index = 0;
  for (const Value& event : events->as_array()) {
    std::optional<SpanRec> rec = from_trace_event(event, why);
    if (!rec) {
      return fail(origin,
                  "traceEvents[" + std::to_string(index) + "]: " + why);
    }
    result.spans.push_back(std::move(*rec));
    ++index;
  }
  if (result.spans.empty()) return fail(origin, "trace contains no spans");
  return result;
}

TraceLoadResult parse_jsonl(const std::string& text,
                            const std::string& origin) {
  TraceLoadResult result;
  std::string why;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::optional<Value> obj = json::parse(line);
    if (!obj || !obj->is_object()) {
      return fail(origin, "line " + std::to_string(lineno) +
                              ": invalid JSON object");
    }
    std::optional<SpanRec> rec = from_jsonl_object(*obj, why);
    if (!rec) {
      return fail(origin, "line " + std::to_string(lineno) + ": " + why);
    }
    result.spans.push_back(std::move(*rec));
  }
  if (result.spans.empty()) return fail(origin, "trace contains no spans");
  return result;
}

}  // namespace

TraceLoadResult parse_trace(const std::string& text,
                            const std::string& origin) {
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return fail(origin, "empty trace");

  // Both exports start with '{': the Perfetto document is one JSON
  // object (all on one line from our exporter, possibly pretty-printed
  // by hand), the JSONL dump is one span object per line. Classify by
  // the first non-blank line: if it parses standalone, its fields
  // decide; if not, the text can only be a (possibly truncated)
  // multi-line JSON document.
  const std::size_t eol = text.find('\n', first);
  const std::string head = text.substr(
      first, eol == std::string::npos ? std::string::npos : eol - first);
  if (const std::optional<Value> obj = json::parse(head);
      obj && obj->is_object()) {
    if (obj->get("traceEvents") != nullptr) {
      // Whole-document Perfetto on one line; re-parse the full text so
      // trailing garbage past the first line is still rejected.
      const std::optional<Value> doc = json::parse(text);
      if (!doc) {
        return fail(origin, "invalid JSON (truncated or malformed)");
      }
      return parse_perfetto(*doc, origin);
    }
    if (obj->get("id") != nullptr) return parse_jsonl(text, origin);
    return fail(origin,
                "no traceEvents array and no JSONL span fields");
  }
  // First line is not standalone JSON: a multi-line document (or a
  // truncated/mangled one). Never fall back to JSONL here — that would
  // mask truncation with a misleading per-line diagnostic.
  const std::optional<Value> doc = json::parse(text);
  if (!doc) return fail(origin, "invalid JSON (truncated or malformed)");
  return parse_perfetto(*doc, origin);
}

TraceLoadResult load_trace_file(const std::string& path) {
  const std::optional<std::string> text = read_text_file(path);
  if (!text) return fail(path, "cannot open");
  return parse_trace(*text, path);
}

}  // namespace dohperf::obs
