#include "obs/series.h"

namespace dohperf::obs {

void MetricSeries::merge(const MetricSeries& other) {
  counters_.merge(other.counters_,
                  [](CounterTrack& mine, const CounterTrack& theirs) {
                    mine.merge(theirs, [](std::uint64_t& count,
                                          std::uint64_t add) { count += add; });
                  });
  latencies_.merge(other.latencies_,
                   [](LatencyTrack& mine, const LatencyTrack& theirs) {
                     mine.merge(theirs, [](LatencyHistogram& hist,
                                           const LatencyHistogram& add) {
                       hist.merge(add);
                     });
                   });
}

}  // namespace dohperf::obs
