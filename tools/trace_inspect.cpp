// Prints a per-phase latency breakdown of a captured span trace.
//
//   trace_inspect out/trace.json   (Chrome/Perfetto trace_event JSON)
//
// Loading is strict (obs/trace_load.h): a truncated or malformed trace
// — invalid JSON, a missing traceEvents array, an event whose name,
// cat, ts, dur, id, parent or bytes breaks the loader's rules — exits
// with status 1 after a one-line diagnostic instead of printing a
// partial breakdown.
//
// For every root span (a flow), the direct child phases are listed with
// their share of the flow total, and contiguous phase decompositions
// (e.g. doh_query = tunnel + handshake + resolution) are checked to sum
// exactly to the flow duration — a nonzero gap exits with status 2, so
// CI catches instrumentation that drifts out of alignment. A per-name
// aggregate across the whole trace follows.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_load.h"

namespace {

using dohperf::obs::Span;

/// Prints one root flow's phase breakdown; returns false when a
/// contiguous phase decomposition fails to sum to the flow total.
bool print_flow(const Span& root, const std::vector<Span>& spans) {
  std::printf("flow %-14s %10.3f ms total\n", root.name.c_str(),
              root.duration_ms());

  const std::vector<const Span*> phases =
      dohperf::obs::flow_phases(spans, root);
  std::int64_t covered_us = 0;
  const double total_ms = root.duration_ms();
  for (const Span* phase : phases) {
    covered_us += (phase->end - phase->start).count();
    std::printf("  phase %-14s %10.3f ms  (%5.1f%%)\n", phase->name.c_str(),
                phase->duration_ms(),
                total_ms > 0.0 ? 100.0 * phase->duration_ms() / total_ms
                               : 0.0);
  }
  if (phases.empty()) return true;

  // A contiguous decomposition: phases abut each other and span the whole
  // flow. Only then must the phase times sum to the flow total.
  bool contiguous = phases.front()->start == root.start &&
                    phases.back()->end == root.end;
  for (std::size_t i = 1; contiguous && i < phases.size(); ++i) {
    contiguous = phases[i - 1]->end == phases[i]->start;
  }
  if (!contiguous) return true;

  const std::int64_t gap_us = (root.end - root.start).count() - covered_us;
  std::printf("  phases sum to %.3f ms of %.3f ms total (gap %.3f ms)\n",
              static_cast<double>(covered_us) / 1000.0, total_ms,
              static_cast<double>(gap_us) / 1000.0);
  return gap_us == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_inspect <trace.json>\n");
    return 1;
  }
  const dohperf::obs::TraceLoadResult loaded =
      dohperf::obs::load_trace_file(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "trace_inspect: %s\n", loaded.error.c_str());
    return 1;
  }
  const std::vector<Span>& spans = loaded.spans;

  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  for (const Span& span : spans) {
    if (!span.hop) continue;
    ++hops;
    bytes += span.bytes;
  }
  std::printf("trace: %zu spans (%llu hops, %llu bytes on wire) from %s\n\n",
              spans.size(), static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(bytes), argv[1]);

  bool phases_ok = true;
  for (const Span& span : spans) {
    if (span.parent != dohperf::obs::kNoSpan || span.hop) continue;
    if (!print_flow(span, spans)) phases_ok = false;
    std::printf("\n");
  }

  // Aggregate by name: where does the sim-time go across the trace?
  struct NameAgg {
    std::uint64_t count = 0;
    std::int64_t total_us = 0;
  };
  std::map<std::string, NameAgg> by_name;
  for (const Span& span : spans) {
    NameAgg& agg = by_name[span.name];
    ++agg.count;
    agg.total_us += (span.end - span.start).count();
  }
  std::printf("%-28s %8s %14s\n", "span name", "count", "total ms");
  for (const auto& [name, agg] : by_name) {
    std::printf("%-28s %8llu %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(agg.count),
                static_cast<double>(agg.total_us) / 1000.0);
  }

  // Retry attribution: "retry_backoff" spans wrap every charged
  // retransmit timer (baseline penalties and fault-episode backoff
  // alike), so their total is exactly the sim-time this trace lost to
  // loss recovery rather than propagation or processing.
  if (const auto it = by_name.find("retry_backoff"); it != by_name.end()) {
    std::printf(
        "\nretry attribution: %llu retransmit timer%s, %.3f ms of the "
        "trace spent backing off\n",
        static_cast<unsigned long long>(it->second.count),
        it->second.count == 1 ? "" : "s",
        static_cast<double>(it->second.total_us) / 1000.0);
  } else {
    std::printf("\nretry attribution: no retransmit timers charged\n");
  }

  if (!phases_ok) {
    std::fprintf(stderr,
                 "\ntrace_inspect: contiguous phases do not sum to the "
                 "flow total\n");
    return 2;
  }
  return 0;
}
