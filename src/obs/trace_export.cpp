#include "obs/trace_export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace dohperf::obs {
namespace {

std::int64_t us_since_epoch(netsim::SimTime t) {
  return t.time_since_epoch().count();
}

}  // namespace

std::string perfetto_trace_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json::escape(span.name)
       << "\",\"cat\":\"" << (span.hop ? "hop" : "span")
       << "\",\"ph\":\"X\",\"ts\":" << us_since_epoch(span.start)
       << ",\"dur\":" << us_since_epoch(span.end) - us_since_epoch(span.start)
       << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << span.id
       << ",\"parent\":";
    if (span.parent == kNoSpan) {
      os << "null";
    } else {
      os << span.parent;
    }
    if (span.hop) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    ",\"bytes\":%zu,\"from\":[%.4f,%.4f],\"to\":[%.4f,%.4f]",
                    span.bytes, span.from.lat, span.from.lon, span.to.lat,
                    span.to.lon);
      os << buf;
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string perfetto_trace_json(const SpanContext& spans) {
  return perfetto_trace_json(spans.spans());
}

void write_text_file(const std::string& path, std::string_view content) {
  write_text_file(path, {content});
}

void write_text_file(const std::string& path,
                     std::initializer_list<std::string_view> parts) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  // Replace a previous regular file with a new inode rather than
  // truncate it: ext4 (auto_da_alloc) pushes a truncated file's rewritten
  // data to disk at close, so the next truncate blocks on that I/O, while
  // an unlinked inode's dirty pages are dropped unwritten (DESIGN.md §5l).
  // Only a regular file is unlinked, never a symlink or a device such as
  // /dev/full. Both steps are best-effort: if the unlink fails, the open
  // truncates in place, and the open reports any failure that matters.
  if (std::filesystem::is_regular_file(
          std::filesystem::symlink_status(target, ec))) {
    std::filesystem::remove(target, ec);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  for (const std::string_view part : parts) {
    out.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
  // close() flushes; checking before it would miss a failed final flush.
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_perfetto_trace(const SpanContext& spans, const std::string& path) {
  write_text_file(path, perfetto_trace_json(spans));
}

}  // namespace dohperf::obs
