#include "report/anomalies.h"

#include <filesystem>

#include "obs/trace_export.h"
#include "report/format.h"

namespace dohperf::report {

std::string anomaly_trace_filename(const obs::AnomalyRecord& rec) {
  return "anomaly-" + std::to_string(rec.slot) + "-" +
         std::to_string(rec.flow_index) + ".json";
}

CsvWriter anomaly_index_csv(const obs::FlightRecorder& recorder) {
  CsvWriter csv({"slot", "flow_index", "session", "flow", "reasons",
                 "duration_ms", "spans", "trace_file"});
  for (const auto& [key, rec] : recorder.retained()) {
    csv.add_row({NumText(rec.slot), NumText(rec.flow_index), rec.session,
                 rec.flow, obs::anomaly_reasons(rec.reasons),
                 NumText::g6(rec.duration_ms), NumText(rec.spans.size()),
                 anomaly_trace_filename(rec)});
  }
  return csv;
}

std::size_t write_anomaly_dumps(const obs::FlightRecorder& recorder,
                                const std::string& dir) {
  const std::filesystem::path base(dir);
  anomaly_index_csv(recorder).write_file((base / "anomalies.csv").string());
  std::size_t written = 0;
  for (const auto& [key, rec] : recorder.retained()) {
    obs::write_text_file((base / anomaly_trace_filename(rec)).string(),
                         obs::perfetto_trace_json(rec.spans));
    ++written;
  }
  return written;
}

}  // namespace dohperf::report
