#include "report/metrics.h"

#include <string>

#include "report/format.h"

namespace dohperf::report {

CsvWriter metrics_csv(const obs::Metrics& metrics) {
  CsvWriter csv({"section", "name", "value"});
  for (const auto& [name, member] : obs::kCounterFields) {
    csv.add_row({"counter", name, NumText(metrics.counters.*member)});
  }

  for (const auto& [name, hist] : metrics.histograms()) {
    csv.add_row({"histogram", name + ".count", NumText(hist.count())});
    csv.add_row({"histogram", name + ".p50_ms",
                 NumText::g6(hist.quantile_ms(0.5))});
    csv.add_row({"histogram", name + ".p90_ms",
                 NumText::g6(hist.quantile_ms(0.9))});
    csv.add_row({"histogram", name + ".p99_ms",
                 NumText::g6(hist.quantile_ms(0.99))});
    for (const obs::SparseBuckets::Cell& cell : hist.buckets()) {
      csv.add_row({"histogram", name + ".bucket" + std::to_string(cell.bucket),
                   NumText(cell.count)});
    }
  }
  return csv;
}

}  // namespace dohperf::report
