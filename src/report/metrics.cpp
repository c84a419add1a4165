#include "report/metrics.h"

#include <string>

#include "report/format.h"

namespace dohperf::report {

CsvWriter metrics_csv(const obs::Metrics& metrics) {
  CsvWriter csv({"section", "name", "value"});
  const obs::MetricCounters& c = metrics.counters;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"messages", c.messages},
      {"bytes_on_wire", c.bytes_on_wire},
      {"dns_queries", c.dns_queries},
      {"doh_queries", c.doh_queries},
      {"do53_queries", c.do53_queries},
      {"tcp_handshakes", c.tcp_handshakes},
      {"tls_handshakes", c.tls_handshakes},
      {"quic_handshakes", c.quic_handshakes},
      {"tunnels_established", c.tunnels_established},
      {"loss_retries", c.loss_retries},
      {"handshake_retries", c.handshake_retries},
      {"retry_timeouts", c.retry_timeouts},
      {"fallbacks", c.fallbacks},
      {"fallback_ok", c.fallback_ok},
      {"fallback_failed", c.fallback_failed},
      {"brownout_delays", c.brownout_delays},
      {"failures", c.failures},
      {"tls_resumptions", c.tls_resumptions},
      {"pool_cold", c.pool_cold},
      {"pool_reuses", c.pool_reuses},
      {"pool_resumptions", c.pool_resumptions},
      {"pool_evictions", c.pool_evictions},
      {"shared_cache_hits", c.shared_cache_hits},
      {"shared_cache_misses", c.shared_cache_misses},
      {"stub_cache_hits", c.stub_cache_hits},
  };
  for (const auto& [name, value] : counters) {
    csv.add_row({"counter", name, NumText(value)});
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
