// Reference-model sweep for the telemetry sinks' interned labels and flat
// cells (obs::LabeledTracks, obs::WindowCells).
//
// 120k seeded samples go into MetricSeries, SloTracker, AttributionLedger
// and Metrics: 4 metrics x 6 providers x 30 countries, with names that
// are prefixes of each other ("S", "SE", "SEA") or differ only in case
// ("se", "SE"), so the byte-wise render order is exercised; offsets
// before the epoch, on window edges +-1 us and across gaps, in random
// window order; and one add_count_range per part that reaches
// kMaxRangeWindows. The samples are then split over 1, 2, 3 and 8 sinks,
// each recording its share in its own shuffled order (so each interns
// the labels in a different first-seen order), and merged forward, in
// reverse and shuffled. Every rendering must equal, byte for byte, the
// rendering of one sink that recorded every sample; per-track cell counts
// must equal a std::map reference; and operator== must hold across every
// split and merge order and fail once one cell differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "netsim/time.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "report/attribution.h"
#include "report/metrics.h"
#include "report/slo.h"
#include "report/timeseries.h"

namespace dohperf {
namespace {

constexpr std::array<std::string_view, 4> kMetrics = {
    "doh_ms", "doh", "Doh_ms", "phase_tunnel_ms"};
constexpr std::array<std::string_view, 6> kProviders = {
    "Cloudflare", "cloudflare", "Cloud", "Google", "Quad9", ""};
constexpr std::array<std::string_view, 30> kCountries = {
    "",   "S",  "SE", "SEA", "se", "Se", "sE", "DE", "BR", "US",
    "GB", "FR", "JP", "IN",  "ZA", "AR", "CL", "NO", "FI", "DK",
    "s",  "SEAA", "A", "Z",  "a",  "z", "\xc3\x89", "AU", "NZ", "~"};
constexpr std::array<std::string_view, 4> kTransports = {
    "doh", "do53", "doh_warm", "DoH"};

constexpr netsim::Duration kSeriesWindow = netsim::from_ms(250.0);
constexpr std::size_t kSamples = 120'000;

struct Sample {
  std::uint8_t metric = 0;
  std::uint8_t provider = 0;
  std::uint8_t country = 0;
  std::uint8_t transport = 0;
  bool counter = false;  ///< Series counter sample, else a latency sample.
  netsim::Duration offset{};
  netsim::Duration campaign_offset{};
  double ms = 0.0;
  obs::Outcome outcome = obs::Outcome::kOk;
  std::uint8_t flow = 0;  ///< Index into flows().
};

/// A few closed phase partitions to file in the ledger.
const std::vector<obs::FlowAttribution>& flows() {
  static const std::vector<obs::FlowAttribution> kFlows = [] {
    std::vector<obs::FlowAttribution> out;
    const auto at = [](double ms) {
      return netsim::SimTime{} + netsim::from_ms(ms);
    };
    for (int i = 0; i < 16; ++i) {
      obs::FlowAttribution flow;
      flow.begin(at(0));
      const auto phase = obs::kPhases[static_cast<std::size_t>(i) %
                                      obs::kPhases.size()];
      const auto token = flow.push(phase, at(1.0 + i));
      flow.pop(token, at(3.0 + 7.0 * i));
      if (i % 3 == 0) {
        const auto retry = flow.push(obs::Phase::kRetryBackoff, at(50.0 + i));
        flow.pop(retry, at(90.0 + 11.0 * i));
      }
      flow.end(at(120.0 + 13.0 * i));
      out.push_back(flow);
    }
    return out;
  }();
  return kFlows;
}

std::vector<Sample> make_samples() {
  std::mt19937_64 rng(20211102);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::uint8_t>(rng() % n);
  };
  std::vector<Sample> samples(kSamples);
  for (Sample& s : samples) {
    s.metric = pick(kMetrics.size());
    s.provider = pick(kProviders.size());
    s.country = pick(kCountries.size());
    s.transport = pick(kTransports.size());
    s.counter = rng() % 3 == 0;
    // Windows 0..159 leave most tracks with gaps. A sample lands on a
    // window edge, one microsecond either side of it, inside the window,
    // or before the epoch (clamped into window 0).
    const std::int64_t edge =
        static_cast<std::int64_t>(rng() % 160) * kSeriesWindow.count();
    switch (rng() % 5) {
      case 0: s.offset = netsim::Duration(edge); break;
      case 1: s.offset = netsim::Duration(edge - 1); break;
      case 2: s.offset = netsim::Duration(edge + 1); break;
      case 3:
        s.offset = netsim::Duration(
            edge + static_cast<std::int64_t>(rng() % 250'000));
        break;
      default:
        s.offset = -netsim::Duration(
            1 + static_cast<std::int64_t>(rng() % 10'000'000));
    }
    // Campaign time over 400 one-minute SLO windows; each provider has a
    // bad stretch, so the burn-rate alerts fire.
    const std::int64_t minute = static_cast<std::int64_t>(rng() % 400);
    s.campaign_offset =
        minute == 0 ? -netsim::from_ms(5.0)
                    : netsim::from_ms(60'000.0 * static_cast<double>(minute) +
                                      static_cast<double>(rng() % 60'000));
    const bool bad_stretch =
        minute >= 50 * (s.provider + 1) && minute < 50 * (s.provider + 1) + 20;
    s.outcome = bad_stretch && rng() % 2 == 0
                    ? static_cast<obs::Outcome>(3 + rng() % 5)
                    : static_cast<obs::Outcome>(rng() % 3);
    s.ms = std::exp(std::uniform_real_distribution<double>(-1.0, 9.0)(rng));
    s.flow = pick(flows().size());
  }
  return samples;
}

obs::SloConfig slo_config() {
  obs::SloConfig config;
  config.enabled = true;
  config.window = netsim::from_ms(60'000.0);
  config.availability_objective = 0.99;
  config.p99_objective_ms = 500.0;
  config.fast_short = netsim::from_ms(120'000.0);
  config.fast_long = netsim::from_ms(600'000.0);
  config.fast_burn = 10.0;
  config.slow_short = netsim::from_ms(600'000.0);
  config.slow_long = netsim::from_ms(3'600'000.0);
  config.slow_burn = 4.0;
  return config;
}

struct Sinks {
  obs::MetricSeries series{kSeriesWindow};
  obs::SloTracker slo{slo_config()};
  obs::AttributionLedger attribution;
  obs::Metrics metrics;

  void record(const Sample& s) {
    const std::string_view metric = kMetrics[s.metric];
    const std::string_view provider = kProviders[s.provider];
    const std::string_view country = kCountries[s.country];
    if (s.counter) {
      series.add_count({metric, provider, country}, s.offset, 1 + s.flow);
    } else {
      series.record_latency({metric, provider, country}, s.offset, s.ms);
    }
    slo.record(provider, country, s.campaign_offset, s.outcome, s.ms,
               obs::is_success(s.outcome));
    attribution.record(provider, country, kTransports[s.transport],
                       flows()[s.flow]);
    metrics.histogram(s.counter ? provider : metric).record(s.ms);
    metrics.counters.messages += s.flow;
  }

  /// One unbounded episode: the range stops at kMaxRangeWindows.
  void record_outage(std::string_view provider, netsim::Duration from) {
    series.add_count_range({"fault_provider_outage", provider, ""}, from,
                           netsim::Duration::max());
  }

  void merge(const Sinks& other) {
    series.merge(other.series);
    slo.merge(other.slo);
    attribution.merge(other.attribution);
    metrics.merge(other.metrics);
  }
};

struct Renderings {
  std::string series_csv;
  std::string openmetrics;
  std::string availability_csv;
  std::string alerts_csv;
  std::string attribution_csv;
  std::string metrics_csv;

  friend bool operator==(const Renderings&, const Renderings&) = default;
};

Renderings render(const Sinks& sinks) {
  return {report::timeseries_csv(sinks.series).str(),
          report::openmetrics_text(sinks.series),
          report::availability_csv(sinks.slo).str(),
          report::slo_alerts_csv(sinks.slo.evaluate()).str(),
          report::attribution_csv(sinks.attribution).str(),
          report::metrics_csv(sinks.metrics).str()};
}

/// Where the unbounded episodes start, all on one track. A split deals
/// them round-robin over its parts, so every split records the same set.
constexpr std::array<double, 8> kOutageStarts = {0.0,   250.0, 499.999, 1e3,
                                                 2e3,   7.5e3, 1e4,     12.5e3};

/// The reference model: every track's set of windows, by name.
using Ref = std::map<std::tuple<std::string, std::string, std::string>,
                     std::set<std::int64_t>>;

struct Reference {
  Ref counters;
  Ref latencies;
  Ref slo;
  std::set<std::tuple<std::string, std::string, std::string>> attribution;
};

Reference reference(const std::vector<Sample>& samples) {
  const obs::MetricSeries grid(kSeriesWindow);
  const obs::SloTracker slo(slo_config());
  Reference ref;
  const auto window_of = [](netsim::Duration offset, netsim::Duration width) {
    return offset.count() <= 0 ? 0 : offset.count() / width.count();
  };
  for (const Sample& s : samples) {
    const std::string metric(kMetrics[s.metric]);
    const std::string provider(kProviders[s.provider]);
    const std::string country(kCountries[s.country]);
    (s.counter ? ref.counters : ref.latencies)[{metric, provider, country}]
        .insert(grid.window_index(s.offset));
    const std::int64_t w = window_of(s.campaign_offset, slo.config().window);
    ref.slo[{provider, country, ""}].insert(w);
    if (!country.empty()) ref.slo[{provider, "", ""}].insert(w);
    ref.attribution.insert(
        {provider, country, std::string(kTransports[s.transport])});
  }
  for (const double start_ms : kOutageStarts) {
    const std::int64_t first = grid.window_index(netsim::from_ms(start_ms));
    std::set<std::int64_t>& windows =
        ref.counters[{"fault_provider_outage", "Quad9", ""}];
    for (std::int64_t w = first;
         w < first + obs::MetricSeries::kMaxRangeWindows; ++w) {
      windows.insert(w);
    }
  }
  return ref;
}

/// Every track of `tracks` holds the windows the reference says, and the
/// reference names no other track.
template <typename Tracks>
void expect_cells_match(const Tracks& tracks, const Ref& ref,
                        const char* what) {
  EXPECT_EQ(tracks.size(), ref.size()) << what;
  for (const auto& [ids, cells] : tracks) {
    const auto names = tracks.names(ids);
    std::tuple<std::string, std::string, std::string> key;
    std::get<0>(key) = std::string(names[0]);
    std::get<1>(key) = std::string(names[1]);
    if constexpr (std::tuple_size_v<decltype(names)> == 3) {
      std::get<2>(key) = std::string(names[2]);
    }
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << what << " " << names[0] << "/" << names[1];
    EXPECT_EQ(cells.size(), it->second.size())
        << what << " " << names[0] << "/" << names[1];
    std::vector<std::int64_t> windows;
    for (const auto& [window, cell] : cells) windows.push_back(window);
    EXPECT_TRUE(std::ranges::equal(windows, it->second)) << what;
  }
}

class TelemetryCellsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    samples_ = new std::vector<Sample>(make_samples());
    whole_ = new Sinks;
    for (const Sample& s : *samples_) whole_->record(s);
    for (const double start_ms : kOutageStarts) {
      whole_->record_outage("Quad9", netsim::from_ms(start_ms));
    }
    whole_render_ = new Renderings(render(*whole_));
  }
  static void TearDownTestSuite() {
    delete whole_render_;
    delete whole_;
    delete samples_;
  }

  /// The samples split over `n` sinks, each recording its share in its
  /// own shuffled order.
  static std::vector<Sinks> split(std::size_t n) {
    std::vector<std::vector<const Sample*>> shares(n);
    std::mt19937_64 rng(7919 + n);
    for (const Sample& s : *samples_) shares[rng() % n].push_back(&s);
    std::vector<Sinks> parts(n);
    for (std::size_t p = 0; p < n; ++p) {
      std::ranges::shuffle(shares[p], rng);
      for (const Sample* s : shares[p]) parts[p].record(*s);
    }
    for (std::size_t i = 0; i < kOutageStarts.size(); ++i) {
      parts[i % n].record_outage("Quad9", netsim::from_ms(kOutageStarts[i]));
    }
    return parts;
  }

  static std::vector<Sample>* samples_;
  static Sinks* whole_;
  static Renderings* whole_render_;
};

std::vector<Sample>* TelemetryCellsTest::samples_ = nullptr;
Sinks* TelemetryCellsTest::whole_ = nullptr;
Renderings* TelemetryCellsTest::whole_render_ = nullptr;

TEST_F(TelemetryCellsTest, OneSinkMatchesTheReferenceModel) {
  const Reference ref = reference(*samples_);
  expect_cells_match(whole_->series.counters(), ref.counters, "counters");
  expect_cells_match(whole_->series.latencies(), ref.latencies, "latencies");
  expect_cells_match(whole_->slo.cells(), ref.slo, "slo");
  EXPECT_EQ(whole_->attribution.entries().size(), ref.attribution.size());
  for (const auto& [provider, country, transport] : ref.attribution) {
    EXPECT_NE(whole_->attribution.entries().find(
                  {provider, country, transport}),
              nullptr)
        << provider << "/" << country << "/" << transport;
  }
  // The sweep reaches what it is meant to: the window backstop, alerts,
  // and every label.
  EXPECT_EQ(whole_->series.counters()
                .at({"fault_provider_outage", "Quad9", ""})
                .back()
                .first,
            netsim::from_ms(12.5e3).count() / kSeriesWindow.count() +
                obs::MetricSeries::kMaxRangeWindows - 1);
  EXPECT_FALSE(whole_->slo.evaluate().empty());
  EXPECT_EQ(whole_->metrics.histograms().size(),
            kMetrics.size() + kProviders.size());
}

TEST_F(TelemetryCellsTest, RenderingsFollowByteOrderOfTheNames) {
  // Byte order: "" < "S" < "SE" < "SEA" < "SEAA" < "Se" < "a" < "s" <
  // "sE" < "se" < "~" < "\xc3\x89"; a std::map of strings agrees.
  const std::string& csv = whole_render_->series_csv;
  const auto row = [&csv](std::string_view prefix) {
    return csv.find("\n" + std::string(prefix));
  };
  EXPECT_LT(row("doh,Cloud,,"), row("doh,Cloud,S,"));
  EXPECT_LT(row("doh,Cloud,S,"), row("doh,Cloud,SE,"));
  EXPECT_LT(row("doh,Cloud,SE,"), row("doh,Cloud,SEA,"));
  EXPECT_LT(row("doh,Cloud,SEA,"), row("doh,Cloud,Se,"));
  EXPECT_LT(row("doh,Cloud,Se,"), row("doh,Cloud,se,"));
  EXPECT_LT(row("doh,Cloud,~,"), row("doh,Cloud,\xc3\x89,"));
  EXPECT_LT(row("doh,Cloud,"), row("doh,Cloudflare,"));
  EXPECT_LT(row("doh,Cloudflare,"), row("doh,Google,"));
  EXPECT_LT(row("doh,Quad9,"), row("doh,cloudflare,"));
  EXPECT_LT(row("Doh_ms,"), row("doh,"));
  EXPECT_LT(row("doh,"), row("doh_ms,"));
}

TEST_F(TelemetryCellsTest, EverySplitAndMergeOrderRendersTheSameBytes) {
  const Reference ref = reference(*samples_);
  for (const std::size_t n : {1u, 2u, 3u, 8u}) {
    const std::vector<Sinks> parts = split(n);
    std::vector<std::size_t> shuffled(n);
    for (std::size_t i = 0; i < n; ++i) shuffled[i] = i;
    std::ranges::shuffle(shuffled, std::mt19937_64(n));
    struct Order {
      const char* name;
      std::vector<std::size_t> parts;
      bool into_first;  ///< Merge into a copy of the first part.
    };
    std::vector<std::size_t> forward = shuffled, reverse = shuffled;
    std::ranges::sort(forward);
    std::ranges::sort(reverse, std::greater<>());
    const Order orders[] = {{"forward", forward, true},
                            {"reverse", reverse, false},
                            {"shuffled", shuffled, false}};
    for (const Order& order : orders) {
      SCOPED_TRACE(std::to_string(n) + " sinks, " + order.name);
      Sinks merged;
      std::size_t i = 0;
      if (order.into_first) merged = parts[order.parts[i++]];
      for (; i < order.parts.size(); ++i) merged.merge(parts[order.parts[i]]);

      EXPECT_TRUE(merged.series == whole_->series);
      EXPECT_TRUE(merged.slo == whole_->slo);
      EXPECT_TRUE(merged.attribution == whole_->attribution);
      EXPECT_TRUE(merged.metrics == whole_->metrics);
      const Renderings rendered = render(merged);
      EXPECT_TRUE(rendered.series_csv == whole_render_->series_csv);
      EXPECT_TRUE(rendered.openmetrics == whole_render_->openmetrics);
      EXPECT_TRUE(rendered.availability_csv ==
                  whole_render_->availability_csv);
      EXPECT_TRUE(rendered.alerts_csv == whole_render_->alerts_csv);
      EXPECT_TRUE(rendered.attribution_csv ==
                  whole_render_->attribution_csv);
      EXPECT_TRUE(rendered.metrics_csv == whole_render_->metrics_csv);
      expect_cells_match(merged.series.counters(), ref.counters, "counters");
      expect_cells_match(merged.series.latencies(), ref.latencies,
                         "latencies");
      expect_cells_match(merged.slo.cells(), ref.slo, "slo");
    }
  }
}

TEST_F(TelemetryCellsTest, EqualityFailsWhenOneCellDiffers) {
  const std::vector<Sinks> parts = split(3);
  Sinks merged = parts[2];
  merged.merge(parts[0]);
  merged.merge(parts[1]);
  ASSERT_TRUE(merged.series == whole_->series);

  // Each edit moves one existing cell by one and adds no track or window.
  const Sample& s = samples_->front();
  const std::string_view metric = kMetrics[s.metric];
  const std::string_view provider = kProviders[s.provider];
  const std::string_view country = kCountries[s.country];

  Sinks edited = merged;
  if (s.counter) {
    edited.series.add_count({metric, provider, country}, s.offset);
  } else {
    edited.series.record_latency({metric, provider, country}, s.offset, s.ms);
  }
  EXPECT_EQ(edited.series.counters().size(),
            whole_->series.counters().size());
  EXPECT_FALSE(edited.series == whole_->series);

  edited = merged;
  edited.slo.record(provider, country, s.campaign_offset, s.outcome);
  EXPECT_EQ(edited.slo.cells().size(), whole_->slo.cells().size());
  EXPECT_FALSE(edited.slo == whole_->slo);

  edited = merged;
  edited.attribution.record(provider, country, kTransports[s.transport],
                            flows()[s.flow]);
  EXPECT_EQ(edited.attribution.entries().size(),
            whole_->attribution.entries().size());
  EXPECT_FALSE(edited.attribution == whole_->attribution);

  edited = merged;
  edited.metrics.histogram(s.counter ? provider : metric).record(s.ms);
  EXPECT_FALSE(edited.metrics == whole_->metrics);

  // Equality is symmetric: the whole sink differs from the edited one too.
  EXPECT_FALSE(whole_->metrics == edited.metrics);
  EXPECT_TRUE(whole_->metrics == merged.metrics);
}

}  // namespace
}  // namespace dohperf
