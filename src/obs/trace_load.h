// Strict loading of exported Perfetto traces back into obs::Span records.
//
// Shared by tools/trace_inspect and tools/obs_report. Every defect — an
// unreadable file, invalid JSON, a missing traceEvents array, an event
// that breaks one of the rules below, or a trace with no spans at all —
// produces a one-line diagnostic instead of spans, and callers are
// expected to fail loudly. A defect in an event is named by the event's
// index and the field ("traceEvents[3].args.id: ...").
//
// The rules for each traceEvents element, all of which
// perfetto_trace_json's output meets:
//   - name is a non-empty string, and cat is "span" or "hop";
//   - ts and dur are integers from 0 to 2^53 (microseconds);
//   - args.id is an integer below kNoSpan, and no two events share one;
//   - args.parent is null or the id of an earlier event;
//   - args.bytes is absent, or an integer from 0 to 2^53.
// A hop's endpoints (args.from, args.to) are not read: no tool uses them,
// so the loaded spans keep their default positions.
#pragma once

#include <string>
#include <vector>

#include "obs/span.h"

namespace dohperf::obs {

/// Either a non-empty span list or a one-line diagnostic; never both.
struct TraceLoadResult {
  std::vector<Span> spans;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses a Perfetto trace document. `origin` labels diagnostics (a file
/// path or "<memory>").
[[nodiscard]] TraceLoadResult parse_trace(const std::string& text,
                                          const std::string& origin);

/// Reads and parses `path`; unreadable files become diagnostics too.
[[nodiscard]] TraceLoadResult load_trace_file(const std::string& path);

/// The phases of the flow `root`: its direct non-hop children in `spans`,
/// sorted by start.
[[nodiscard]] std::vector<const Span*> flow_phases(
    const std::vector<Span>& spans, const Span& root);

}  // namespace dohperf::obs
