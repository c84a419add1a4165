// Trace export: Chrome/Perfetto trace_event JSON, the one file format
// for spans.
//
// The Perfetto writer emits complete ("ph":"X") events whose ts/dur are
// the span's sim-time microseconds, so a captured flow opens directly in
// ui.perfetto.dev / chrome://tracing with correct visual nesting. Each
// event's cat ("span" or "hop") and args (id, parent, and a hop's bytes
// and endpoints) carry the rest of the span, so obs::parse_trace
// rebuilds the tree from the same file.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"

namespace dohperf::obs {

/// The Perfetto trace_event document for `spans` (one process, one
/// thread; nesting comes from span containment on the shared track).
[[nodiscard]] std::string perfetto_trace_json(const std::vector<Span>& spans);
[[nodiscard]] std::string perfetto_trace_json(const SpanContext& spans);

/// Writes `content` to `path`, creating missing parent directories (so
/// "out/trace.json" works on a fresh checkout). A regular file already at
/// `path` is replaced by a new one, never truncated: a reader or hard link
/// of the previous file keeps its bytes, and the new file gets the default
/// mode. Any other path (a symlink, a device, a FIFO) is opened and
/// truncated as it is. The file is closed before the stream is checked,
/// so a failure in the final flush (a full disk) throws std::runtime_error
/// like any other I/O failure.
void write_text_file(const std::string& path, std::string_view content);

/// The same, for a document written as `parts` in order (a provenance
/// stamp and a body, say) without concatenating them first.
void write_text_file(const std::string& path,
                     std::initializer_list<std::string_view> parts);

/// The whole of the file at `path`, or std::nullopt when it cannot be
/// opened: the one way a file dohperf reads back is read into memory.
[[nodiscard]] std::optional<std::string> read_text_file(
    const std::string& path);

/// perfetto_trace_json + write_text_file.
void write_perfetto_trace(const SpanContext& spans, const std::string& path);

}  // namespace dohperf::obs
