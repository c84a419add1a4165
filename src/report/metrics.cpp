#include "report/metrics.h"

#include <string>

#include "report/format.h"

namespace dohperf::report {

CsvWriter metrics_csv(const obs::Metrics& metrics) {
  CsvWriter csv({"section", "name", "value"});
  for (const auto& [name, member] : obs::kCounterFields) {
    csv.add_row({"counter", name, NumText(metrics.counters.*member)});
  }

  const obs::Metrics::Histograms& histograms = metrics.histograms();
  for (const auto* track : histograms.sorted()) {
    const std::string name(histograms.names(track->ids)[0]);
    const obs::LatencyHistogram& hist = track->value;
    const auto [p50, p90, p99] = quantile_texts(hist);
    csv.add_row({"histogram", name + ".count", NumText(hist.count())});
    csv.add_row({"histogram", name + ".p50_ms", p50});
    csv.add_row({"histogram", name + ".p90_ms", p90});
    csv.add_row({"histogram", name + ".p99_ms", p99});
    for (const obs::SparseBuckets::Cell& cell : hist.buckets()) {
      csv.add_row({"histogram", name + ".bucket" + std::to_string(cell.bucket),
                   NumText(cell.count)});
    }
  }
  return csv;
}

}  // namespace dohperf::report
