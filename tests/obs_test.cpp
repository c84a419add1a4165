// Tests for the observability subsystem: span-tree nesting (including
// across coroutine suspension points), histogram bucket arithmetic,
// metrics merging, and trace-export well-formedness (the Perfetto JSON
// is parsed back with the bundled parser).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure/flows.h"
#include "netsim/netctx.h"
#include "netsim/path.h"
#include "netsim/random.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/outcome.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "obs/trace_load.h"
#include "proxy/tunnel.h"
#include "transport/connection.h"
#include "transport/tls.h"
#include "world/world_model.h"

namespace dohperf {
namespace {

using netsim::NetCtx;
using netsim::Site;
using obs::LatencyHistogram;
using obs::kNoSpan;
using obs::MetricSeries;
using obs::SeriesNames;
using obs::SeriesRecorder;
using obs::Span;
using obs::SpanContext;
using obs::anomaly_reasons;

struct ObsFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::Rng rng{7};
  SpanContext spans;
  obs::Metrics metrics;
  NetCtx net{sim, rng, &spans, &metrics};
  // Jitter-free sites for exact assertions.
  Site client{{0, 0}, 2.0, 1.0, 0.0};
  Site super_proxy{{0, 20}, 1.0, 1.0, 0.0};
  Site exit{{0, 40}, 1.5, 1.0, 0.0};
};

/// Every span's interval must sit inside its parent's, parents must be
/// valid earlier ids, and no span may be left open.
void expect_well_nested(const SpanContext& ctx) {
  EXPECT_EQ(ctx.open_count(), 0u);
  const std::vector<Span>& spans = ctx.spans();
  for (const Span& span : spans) {
    EXPECT_LE(span.start, span.end) << span.name;
    if (span.parent == kNoSpan) continue;
    ASSERT_LT(span.parent, span.id) << span.name;
    const Span& parent = spans[span.parent];
    EXPECT_FALSE(parent.hop) << "hop " << parent.name << " has children";
    EXPECT_GE(span.start, parent.start)
        << span.name << " starts before parent " << parent.name;
    EXPECT_LE(span.end, parent.end)
        << span.name << " ends after parent " << parent.name;
  }
}

// ------------------------------------------------------------ span tree

TEST(SpanContextTest, OpenCloseBuildsParentChain) {
  netsim::Simulator sim;
  SpanContext ctx;
  const auto root = ctx.open("root", sim.now());
  const auto child = ctx.open("child", sim.now());
  EXPECT_EQ(ctx.open_count(), 2u);
  ctx.close(child, sim.now());
  // Closing the innermost span makes its parent innermost again.
  const auto sibling = ctx.open("sibling", sim.now());
  ctx.close(sibling, sim.now());
  ctx.close(root, sim.now());
  // A span with an explicit parent nests wherever it is told to.
  const auto late = ctx.open("late", child, sim.now());
  ctx.close(late, sim.now());

  ASSERT_EQ(ctx.spans().size(), 4u);
  EXPECT_EQ(ctx.spans()[root].parent, kNoSpan);
  EXPECT_EQ(ctx.spans()[child].parent, root);
  EXPECT_EQ(ctx.spans()[sibling].parent, root);
  EXPECT_EQ(ctx.spans()[late].parent, child);
  EXPECT_EQ(ctx.spans()[child].name, "child");
  expect_well_nested(ctx);
}

TEST(SpanContextTest, OpenCountNamesASpanLeftOpen) {
  netsim::Simulator sim;
  SpanContext ctx;
  const auto root = ctx.open("root", sim.now());
  const auto leaked = ctx.open("leaked", sim.now());
  // Closing the root leaves its child open, and the count says so.
  ctx.close(root, sim.now());
  EXPECT_EQ(ctx.open_count(), 1u);
  ctx.close(leaked, sim.now());
  EXPECT_EQ(ctx.open_count(), 0u);
}

TEST(SpanContextTest, HopsAreLeavesUnderTheInnermostSpan) {
  netsim::Simulator sim;
  SpanContext ctx;
  const auto root = ctx.open("root", sim.now());
  ctx.record_hop(root, sim.now(), sim.now(), {1, 2}, {3, 4}, 128);
  ctx.close(root, sim.now());

  const auto hops = ctx.hop_view();
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_TRUE(hops[0]->hop);
  EXPECT_EQ(hops[0]->parent, root);
  EXPECT_EQ(hops[0]->bytes, 128u);
  EXPECT_EQ(hops[0]->from.lat, 1.0);
  EXPECT_EQ(hops[0]->to.lon, 4.0);
}

TEST(ScopedSpanTest, DefaultConstructedIsNoop) {
  NetCtx::Scope guard;  // must not crash on destruction
  EXPECT_EQ(guard.token(), 0u);
  guard.finish();
}

TEST(ScopedSpanTest, NullContextNetCtxSpanIsNoop) {
  netsim::Simulator sim;
  netsim::Rng rng{1};
  obs::Metrics metrics;
  NetCtx net{sim, rng};
  net.metrics = &metrics;
  {
    // No span context and no attribution flow: no span, no phase frame.
    const auto guard = net.step({"anything", obs::Phase::kTlsHandshake,
                                 &obs::MetricCounters::tls_handshakes});
    EXPECT_EQ(guard.token(), 0u);
  }
  // The step still counts.
  EXPECT_EQ(metrics.counters.tls_handshakes, 1u);
}

// ------------------------------------- nesting across coroutine suspension

TEST_F(ObsFixture, TunnelFlowYieldsNestedTreeAcrossSuspension) {
  proxy::Tunnel tunnel{net, client, super_proxy, exit};

  // Named so the closure outlives the coroutine frame that captures it.
  auto flow_fn = [&]() -> netsim::Task<void> {
    const auto root = net.step({"flow"});
    transport::HttpRequest connect_req;
    connect_req.method = "CONNECT";
    connect_req.target = "resolver:443";
    co_await tunnel.connect_to_super_proxy(connect_req);
    co_await tunnel.forward_connect(connect_req);
    co_await tunnel.send_established_reply(proxy::TunTimeline{});
    // The record layer stacks on the tunnel: tls.send > tunnel.send.
    const transport::TlsSession session(tunnel);
    co_await session.send(200);
    co_await session.recv(400);
  };
  auto flow = flow_fn();
  sim.run();
  flow.result();

  expect_well_nested(spans);

  // The root "flow" span must hold everything else.
  ASSERT_FALSE(spans.empty());
  const Span& root = spans.spans().front();
  EXPECT_EQ(root.name, "flow");
  EXPECT_EQ(root.parent, kNoSpan);
  for (const Span& span : spans.spans()) {
    if (span.id == root.id) continue;
    EXPECT_NE(span.parent, kNoSpan) << span.name << " escaped the root";
  }

  // tls.send nests over tunnel.send, which holds hop leaves.
  const Span* tls_send = nullptr;
  const Span* tunnel_send = nullptr;
  for (const Span& span : spans.spans()) {
    if (span.name == "tls.send" && tls_send == nullptr) tls_send = &span;
    if (span.name == "tunnel.send" && tunnel_send == nullptr) {
      tunnel_send = &span;
    }
  }
  ASSERT_NE(tls_send, nullptr);
  ASSERT_NE(tunnel_send, nullptr);
  EXPECT_EQ(tunnel_send->parent, tls_send->id);
  bool tunnel_send_has_hop = false;
  for (const Span& span : spans.spans()) {
    if (span.hop && span.parent == tunnel_send->id) {
      tunnel_send_has_hop = true;
    }
  }
  EXPECT_TRUE(tunnel_send_has_hop);

  // Metrics counted the establishment.
  EXPECT_EQ(metrics.counters.tunnels_established, 1u);
  EXPECT_GT(metrics.counters.messages, 0u);
  EXPECT_GT(metrics.counters.bytes_on_wire, 0u);
}

TEST_F(ObsFixture, InterleavedPathSendsUnderOneSpanStayLabeled) {
  // Two sends race on the simulator; both hops are captured under the
  // span that was innermost when each *started*. With one flow span this
  // checks suspension does not unwind the stack early.
  netsim::Path path(net, client, exit);
  // Named so the closure outlives the coroutine frame that captures it.
  auto flow_fn = [&]() -> netsim::Task<void> {
    const auto guard = net.step({"burst"});
    auto first = path.send(100);
    auto second = path.send(300);
    co_await first;
    co_await second;
  };
  auto flow = flow_fn();
  sim.run();
  flow.result();

  expect_well_nested(spans);
  const std::vector<const Span*> hops = spans.hop_view();
  ASSERT_EQ(hops.size(), 2u);
  for (const Span* hop : hops) {
    ASSERT_NE(hop->parent, kNoSpan);
    EXPECT_EQ(spans.spans()[hop->parent].name, "burst");
  }
  EXPECT_EQ(metrics.counters.messages, 2u);
  EXPECT_EQ(metrics.counters.bytes_on_wire, 400u);
}

TEST_F(ObsFixture, ConcurrentTasksOnContextCopiesKeepTheirOwnBranches) {
  // Two tasks of one flow run at once, each on its own copy of the
  // flow's context (as a page load's domains do). Each opens a step and
  // sends while the other's step is open too: every hop must land under
  // the step of the task that sent it, and both steps under the root.
  const auto task_fn = [](NetCtx net, const Site& from, const Site& to,
                          const char* name,
                          std::size_t bytes) -> netsim::Task<void> {
    const auto step = net.step({name});
    const netsim::Path path(net, from, to);
    co_await path.send(bytes);
    co_await path.recv(bytes);
  };
  auto flow_fn = [&]() -> netsim::Task<void> {
    const auto root = net.step({"flow"});
    auto near = task_fn(net, client, super_proxy, "near", 100);
    auto far = task_fn(net, client, exit, "far", 300);
    co_await near;
    co_await far;
  };
  auto flow = flow_fn();
  sim.run();
  flow.result();

  expect_well_nested(spans);
  std::map<std::string, obs::SpanId> step_of;
  for (const Span& span : spans.spans()) {
    if (!span.hop) step_of[span.name] = span.id;
  }
  ASSERT_EQ(step_of.size(), 3u);
  EXPECT_EQ(spans.spans()[step_of["near"]].parent, step_of["flow"]);
  EXPECT_EQ(spans.spans()[step_of["far"]].parent, step_of["flow"]);
  const std::vector<const Span*> hops = spans.hop_view();
  ASSERT_EQ(hops.size(), 4u);
  for (const Span* hop : hops) {
    EXPECT_EQ(hop->parent, hop->bytes == 100 ? step_of["near"]
                                             : step_of["far"])
        << hop->bytes << "-byte hop";
  }
}

// ------------------------------------------------------------- histogram

TEST(LatencyHistogramTest, BucketEdges) {
  // Underflow bucket: [0, 1 ms), plus NaN and negatives.
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(0.999), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(-5.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            0);
  // First log bucket starts exactly at 1 ms.
  EXPECT_EQ(LatencyHistogram::bucket_index(1.0), 1);
  // Quarter-octave widths: 2 ms is four buckets up from 1 ms.
  EXPECT_EQ(LatencyHistogram::bucket_index(2.0), 5);
  EXPECT_EQ(LatencyHistogram::bucket_index(4.0), 9);
  // Overflow: everything >= 4096 ms lands in the last bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(4096.0),
            LatencyHistogram::kBucketCount - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e9),
            LatencyHistogram::kBucketCount - 1);

  // Edges are consistent: lower(i) == upper(i-1), and the value 1.0 sits
  // on the closed lower edge of bucket 1.
  for (int i = 1; i < LatencyHistogram::kBucketCount - 1; ++i) {
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_lower_ms(i),
                     LatencyHistogram::bucket_upper_ms(i - 1));
    EXPECT_EQ(LatencyHistogram::bucket_index(
                  LatencyHistogram::bucket_lower_ms(i)),
              i)
        << i;
  }
  EXPECT_TRUE(std::isinf(LatencyHistogram::bucket_upper_ms(
      LatencyHistogram::kBucketCount - 1)));
}

TEST(LatencyHistogramTest, QuantilesAreDeterministicBucketEdges) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.quantile_ms(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) hist.record(10.0);
  hist.record(2000.0);
  EXPECT_EQ(hist.count(), 101u);
  const double p50 = hist.quantile_ms(0.5);
  EXPECT_EQ(p50, LatencyHistogram::bucket_upper_ms(
                     LatencyHistogram::bucket_index(10.0)));
  // p50 brackets the recorded value.
  EXPECT_GT(p50, 10.0 / std::exp2(0.25));
  EXPECT_GE(p50, 10.0);
  const double p100 = hist.quantile_ms(1.0);
  EXPECT_EQ(p100, LatencyHistogram::bucket_upper_ms(
                      LatencyHistogram::bucket_index(2000.0)));
}

TEST(LatencyHistogramTest, MergeIsOrderIndependent) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(3.0);
  a.record(700.0);
  b.record(0.2);
  b.record(3.1);

  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count(), 4u);
}

TEST(MetricsTest, MergeSumsCountersAndHistograms) {
  obs::Metrics a;
  obs::Metrics b;
  a.counters.messages = 3;
  a.counters.failures = 1;
  a.histogram("Cloudflare").record(12.0);
  b.counters.messages = 4;
  b.histogram("Cloudflare").record(15.0);
  b.histogram("Google").record(20.0);

  obs::Metrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.counters.messages, 7u);
  EXPECT_EQ(merged.counters.failures, 1u);
  ASSERT_NE(merged.find_histogram("Cloudflare"), nullptr);
  EXPECT_EQ(merged.find_histogram("Cloudflare")->count(), 2u);
  ASSERT_NE(merged.find_histogram("Google"), nullptr);
  EXPECT_EQ(merged.find_histogram("Google")->count(), 1u);
  EXPECT_EQ(merged.find_histogram("NextDNS"), nullptr);

  obs::Metrics other_order = b;
  other_order.merge(a);
  EXPECT_TRUE(merged == other_order);
}

// ----------------------------------------------------------- trace export

TEST_F(ObsFixture, PerfettoJsonParsesBackWithMatchingSpans) {
  proxy::Tunnel tunnel{net, client, super_proxy, exit};
  // Named so the closure outlives the coroutine frame that captures it.
  auto flow_fn = [&]() -> netsim::Task<void> {
    const auto root = net.step({"flow"});
    co_await tunnel.send(150);
    co_await tunnel.recv(300);
  };
  auto flow = flow_fn();
  sim.run();
  flow.result();

  const std::string text = obs::perfetto_trace_json(spans);
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->string_or("displayTimeUnit", ""), "ms");
  const obs::json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), spans.spans().size());

  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    const obs::json::Value& event = events->as_array()[i];
    EXPECT_EQ(event.string_or("name", ""), span.name);
    EXPECT_EQ(event.string_or("ph", ""), "X");
    EXPECT_EQ(event.string_or("cat", ""), span.hop ? "hop" : "span");
    const obs::json::Value* args = event.get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(static_cast<obs::SpanId>(args->number_or("id", -1)), span.id);
    const obs::json::Value* parent = args->get("parent");
    ASSERT_NE(parent, nullptr);
    if (span.parent == kNoSpan) {
      EXPECT_TRUE(parent->is_null());
    } else {
      ASSERT_TRUE(parent->is_number());
      EXPECT_EQ(static_cast<obs::SpanId>(parent->as_number()), span.parent);
    }
    if (span.hop) {
      EXPECT_EQ(static_cast<std::size_t>(args->number_or("bytes", 0)),
                span.bytes);
    }
    // Complete events: dur == end - start in integer microseconds.
    const auto start_us = span.start.time_since_epoch().count();
    const auto end_us = span.end.time_since_epoch().count();
    EXPECT_EQ(static_cast<std::int64_t>(event.number_or("ts", -1)),
              start_us);
    EXPECT_EQ(static_cast<std::int64_t>(event.number_or("dur", -1)),
              end_us - start_us);
  }
}

/// The span tree of one DoH-via-proxy measurement in a small world.
SpanContext proxied_flow_spans() {
  world::WorldConfig config;
  config.seed = 1234;
  config.client_scale = 0.2;
  config.only_countries = {"SE", "US"};
  world::WorldModel world(config);
  netsim::Rng pick = world.rng().split("trace-round-trip");
  const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", pick);

  const netsim::Site& super_proxy =
      world.brightdata().nearest_super_proxy(exit->site.position).site;

  SpanContext spans;
  world.run_flow([&](NetCtx& net) {
    net.spans = &spans;
    return measure::doh_via_proxy(net, *exit, super_proxy,
                                  world.doh_server(0, 0));
  });
  return spans;
}

TEST(TraceLoadTest, PerfettoTraceOfAProxiedFlowLoadsBackFieldByField) {
  const SpanContext flow = proxied_flow_spans();
  ASSERT_FALSE(flow.hop_view().empty());
  const obs::TraceLoadResult loaded =
      obs::parse_trace(obs::perfetto_trace_json(flow), "<memory>");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.spans.size(), flow.spans().size());
  for (std::size_t i = 0; i < loaded.spans.size(); ++i) {
    // Hop endpoints are exported for Perfetto but not read back.
    Span expected = flow.spans()[i];
    expected.from = {};
    expected.to = {};
    EXPECT_EQ(loaded.spans[i], expected) << "span " << i << " "
                                         << expected.name;
  }
}

// ------------------------------------------------- histogram boundaries

TEST(LatencyHistogramTest, QuantileBoundaries) {
  // q = 0 and q = 1 on a single sample both land on that sample's
  // bucket: ceil(0 * n) is clamped to rank 1.
  LatencyHistogram single;
  single.record(10.0);
  const double edge = LatencyHistogram::bucket_upper_ms(
      LatencyHistogram::bucket_index(10.0));
  EXPECT_EQ(single.quantile_ms(0.0), edge);
  EXPECT_EQ(single.quantile_ms(1.0), edge);
  EXPECT_EQ(single.quantile_ms(0.5), edge);

  // All mass in the overflow bucket: the upper edge is infinite, so the
  // quantile reports the bucket's *lower* edge (4096 ms) instead.
  LatencyHistogram overflow;
  overflow.record(5000.0);
  overflow.record(1e9);
  EXPECT_EQ(overflow.quantile_ms(0.0),
            LatencyHistogram::bucket_lower_ms(
                LatencyHistogram::kBucketCount - 1));
  EXPECT_EQ(overflow.quantile_ms(1.0),
            LatencyHistogram::bucket_lower_ms(
                LatencyHistogram::kBucketCount - 1));
  EXPECT_TRUE(std::isfinite(overflow.quantile_ms(0.99)));

  // q = 0 with mixed mass picks the first non-empty bucket.
  LatencyHistogram mixed;
  mixed.record(2.0);
  mixed.record(3000.0);
  EXPECT_EQ(mixed.quantile_ms(0.0),
            LatencyHistogram::bucket_upper_ms(
                LatencyHistogram::bucket_index(2.0)));
  EXPECT_EQ(mixed.quantile_ms(1.0),
            LatencyHistogram::bucket_upper_ms(
                LatencyHistogram::bucket_index(3000.0)));
}

/// The dense bucket array LatencyHistogram stored before its buckets
/// went sparse, with the quantile rule written over the whole array.
struct DenseLatencyReference {
  std::array<std::uint64_t, LatencyHistogram::kBucketCount> counts{};

  void record(double ms) {
    ++counts[static_cast<std::size_t>(LatencyHistogram::bucket_index(ms))];
  }
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    return total;
  }
  [[nodiscard]] double quantile_ms(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    const std::uint64_t target = rank == 0 ? 1 : rank;
    std::uint64_t cumulative = 0;
    for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      cumulative += counts[static_cast<std::size_t>(i)];
      if (cumulative >= target) {
        return i == LatencyHistogram::kBucketCount - 1
                   ? LatencyHistogram::bucket_lower_ms(i)
                   : LatencyHistogram::bucket_upper_ms(i);
      }
    }
    return LatencyHistogram::bucket_lower_ms(LatencyHistogram::kBucketCount -
                                             1);
  }
};

TEST(LatencyHistogramTest, SparseStoreMatchesDenseReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Every bucket edge and both its neighbours, then 0, negatives, NaN,
  // +inf and values far past the top bucket, then a latency bulk to
  // reach 10^5 values. The eight parts draw their bulk from shifted
  // bands, so their bucket sets overlap only in part and merges insert
  // new buckets before, between and after existing ones.
  std::vector<double> special;
  for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    for (const double edge : {LatencyHistogram::bucket_lower_ms(i),
                              LatencyHistogram::bucket_upper_ms(i)}) {
      special.insert(special.end(), {edge, std::nextafter(edge, -kInf),
                                     std::nextafter(edge, kInf)});
    }
  }
  special.insert(special.end(),
                 {0.0, -0.0, -1.0, -1e-300, -kInf, kNaN, kInf, 4096.0 * 3,
                  1e9, 1e300, std::numeric_limits<double>::max()});
  std::vector<std::vector<double>> parts(8);
  for (std::size_t i = 0; i < special.size(); ++i) {
    parts[i % parts.size()].push_back(special[i]);
  }
  netsim::Rng rng(4242);
  for (std::size_t i = special.size(); i < 100000; ++i) {
    const std::size_t p = i % parts.size();
    const double band = static_cast<double>(p);
    parts[p].push_back(std::exp2(rng.uniform(band - 2.0, band + 6.0)));
  }

  DenseLatencyReference reference;
  LatencyHistogram serial;
  std::vector<LatencyHistogram> part_hists(parts.size());
  std::size_t recorded = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const double v : parts[p]) {
      reference.record(v);
      serial.record(v);
      part_hists[p].record(v);
      ++recorded;
    }
  }
  ASSERT_GE(recorded, 100000u);

  const auto merged = [&](const std::vector<std::size_t>& order) {
    LatencyHistogram out;
    for (const std::size_t p : order) out.merge(part_hists[p]);
    return out;
  };
  const std::vector<LatencyHistogram> results = {
      serial, merged({0, 1, 2, 3, 4, 5, 6, 7}),
      merged({7, 6, 5, 4, 3, 2, 1, 0}), merged({3, 0, 6, 1, 7, 2, 5, 4})};
  for (const LatencyHistogram& hist : results) {
    EXPECT_TRUE(hist == serial);
    EXPECT_EQ(hist.count(), reference.count());
    for (int i = -1; i <= LatencyHistogram::kBucketCount; ++i) {
      const std::uint64_t expected =
          i < 0 || i >= LatencyHistogram::kBucketCount
              ? 0
              : reference.counts[static_cast<std::size_t>(i)];
      EXPECT_EQ(hist.bucket_count(i), expected) << "bucket " << i;
    }
    for (int k = 0; k <= 100; ++k) {
      const double q = k / 100.0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hist.quantile_ms(q)),
                std::bit_cast<std::uint64_t>(reference.quantile_ms(q)))
          << "q=" << q;
    }
  }
  EXPECT_EQ(serial.buckets().size(),
            static_cast<std::size_t>(LatencyHistogram::kBucketCount));
}

// ----------------------------------------------------------- metric series

TEST(MetricSeriesTest, WindowIndexingIsEpochRelative) {
  MetricSeries series(netsim::from_ms(250.0));
  EXPECT_EQ(series.window_index(netsim::from_ms(0.0)), 0);
  EXPECT_EQ(series.window_index(netsim::from_ms(249.999)), 0);
  EXPECT_EQ(series.window_index(netsim::from_ms(250.0)), 1);
  EXPECT_EQ(series.window_index(netsim::from_ms(1000.0)), 4);
  // Pre-epoch samples clamp to window 0 rather than going negative.
  EXPECT_EQ(series.window_index(netsim::from_ms(-5.0)), 0);
  EXPECT_DOUBLE_EQ(series.window_start_ms(4), 1000.0);
}

TEST(MetricSeriesTest, AddCountRangeBumpsEveryOverlappedWindow) {
  MetricSeries series(netsim::from_ms(100.0));
  const SeriesNames key{"fault_loss_spike", "", ""};
  // [150, 320) overlaps windows 1, 2, 3; the half-open end at a window
  // edge must not bump the next window.
  series.add_count_range(key, netsim::from_ms(150.0), netsim::from_ms(320.0));
  series.add_count_range(key, netsim::from_ms(100.0), netsim::from_ms(200.0));
  const auto& track = series.counters().at(key);
  ASSERT_EQ(track.size(), 3u);
  EXPECT_EQ(track.at(1), 2u);
  EXPECT_EQ(track.at(2), 1u);
  EXPECT_EQ(track.at(3), 1u);
  // Degenerate and inverted ranges record nothing.
  MetricSeries empty(netsim::from_ms(100.0));
  empty.add_count_range(key, netsim::from_ms(50.0), netsim::from_ms(50.0));
  empty.add_count_range(key, netsim::from_ms(80.0), netsim::from_ms(20.0));
  EXPECT_TRUE(empty.empty());
}

TEST(MetricSeriesTest, UnboundedRangeHitsTheWindowBackstop) {
  // Session-long fault episodes end at Duration::max(); the walk over
  // overlapped windows must stay bounded instead of looping for ~2^63
  // microseconds' worth of windows.
  MetricSeries series(netsim::from_ms(250.0));
  const SeriesNames key{"fault_provider_outage", "Quad9", ""};
  series.add_count_range(key, netsim::Duration{}, netsim::Duration::max());
  EXPECT_EQ(series.counters().at(key).size(),
            static_cast<std::size_t>(MetricSeries::kMaxRangeWindows));
}

TEST(MetricSeriesTest, MergeIsOrderIndependent) {
  const SeriesNames cf{"doh_ms", "Cloudflare", "DE"};
  const SeriesNames retries{"loss_retry", "", ""};
  MetricSeries a(netsim::from_ms(250.0));
  a.record_latency(cf, netsim::from_ms(10.0), 42.0);
  a.add_count(retries, netsim::from_ms(10.0), 2);
  MetricSeries b(netsim::from_ms(250.0));
  b.record_latency(cf, netsim::from_ms(300.0), 99.0);
  b.record_latency(cf, netsim::from_ms(12.0), 43.0);
  b.add_count(retries, netsim::from_ms(10.0), 1);

  MetricSeries ab = a;
  ab.merge(b);
  MetricSeries ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.counters().at(retries).at(0), 3u);
  EXPECT_EQ(ab.latencies().at(cf).at(0).count(), 2u);
  EXPECT_EQ(ab.latencies().at(cf).at(1).count(), 1u);
}

TEST(SeriesRecorderTest, DualRecordsAggregateAndIsNullSafe) {
  MetricSeries series;
  const netsim::SimTime epoch = netsim::SimTime{} + netsim::from_ms(500.0);
  const SeriesRecorder rec{&series, epoch};
  const obs::Labels labels{"Cloudflare", "DE"};
  EXPECT_TRUE(rec.attached());
  // Offsets are measured from the epoch, not the absolute clock.
  rec.latency("doh_ms", labels, epoch + netsim::from_ms(10.0), 42.0);
  rec.count("loss_retry", labels, epoch + netsim::from_ms(300.0));
  EXPECT_EQ(series.latencies()
                .at({"doh_ms", "Cloudflare", "DE"})
                .at(0)
                .count(),
            1u);
  // The per-provider all-countries aggregate rides along.
  EXPECT_EQ(series.latencies()
                .at({"doh_ms", "Cloudflare", ""})
                .at(0)
                .count(),
            1u);
  EXPECT_EQ(series.counters().at({"loss_retry", "Cloudflare", "DE"}).at(1),
            1u);

  // A country-less record must not double-record.
  rec.latency("doh_ms", {"Google", ""}, epoch, 10.0);
  EXPECT_EQ(series.latencies().count({"doh_ms", "Google", ""}), 1u);

  const SeriesRecorder detached;
  EXPECT_FALSE(detached.attached());
  detached.count("x", labels, netsim::SimTime{});
  detached.latency("x", labels, netsim::SimTime{}, 1.0);  // must not crash
}

// --------------------------------------------------------- flight recorder

/// Builds a single-root span tree of the given duration starting at
/// `epoch + start_offset_ms`.
SpanContext make_flow_spans(netsim::SimTime epoch, double start_offset_ms,
                            double duration_ms) {
  SpanContext ctx;
  const netsim::SimTime start = epoch + netsim::from_ms(start_offset_ms);
  const auto root = ctx.open("flow", start);
  const auto child = ctx.open("phase", start);
  ctx.close(child, start + netsim::from_ms(duration_ms / 2.0));
  ctx.close(root, start + netsim::from_ms(duration_ms));
  return ctx;
}

TEST(FlightRecorderTest, PredicateFiresOnCounterDeltasAndSlowFlows) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 1000.0;
  obs::FlightRecorder recorder(policy);

  obs::MetricCounters before;
  obs::MetricCounters after;

  // A fast, clean flow is examined but not retained.
  recorder.examine_flow(0, 0, "s0", "doh:Cloudflare", 50.0, before, after);
  EXPECT_TRUE(recorder.retained().empty());

  // Retry give-up + fallback deltas across the flow trip the predicate.
  after.retry_timeouts = 1;
  after.fallbacks = 1;
  recorder.examine_flow(1, 2, "s1", "doh:Google", 50.0, before, after);
  // Brownout-inflated processing alone also trips it.
  obs::MetricCounters browned;
  browned.brownout_delays = 3;
  recorder.examine_flow(2, 0, "s2", "do53", 2000.0, before, browned);

  ASSERT_EQ(recorder.retained().size(), 2u);
  const obs::AnomalyRecord& first =
      recorder.retained().at(obs::FlowKey{1, 2});
  EXPECT_EQ(first.reasons, obs::kAnomalyRetryGiveUp | obs::kAnomalyFallback);
  EXPECT_EQ(first.session, "s1");
  EXPECT_DOUBLE_EQ(first.duration_ms, 50.0);
  const obs::AnomalyRecord& second =
      recorder.retained().at(obs::FlowKey{2, 0});
  EXPECT_EQ(second.reasons, obs::kAnomalyBrownout | obs::kAnomalySlowFlow);

  const obs::AnomalyCounts& counts = recorder.counts();
  EXPECT_EQ(counts.flows, 3u);
  EXPECT_EQ(counts.anomalous, 2u);
  EXPECT_EQ(counts.give_up, 1u);
  EXPECT_EQ(counts.fallback, 1u);
  EXPECT_EQ(counts.brownout, 1u);
  EXPECT_EQ(counts.slow, 1u);
  EXPECT_EQ(anomaly_reasons(first.reasons), "retry_give_up|fallback");
  EXPECT_EQ(anomaly_reasons(0), "none");
}

TEST(FlightRecorderTest, CapturedSpansAreRebasedAndAttachToRetained) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 100.0;
  obs::FlightRecorder recorder(policy);
  recorder.examine_flow(0, 0, "s", "f", 200.0, {}, {});
  ASSERT_EQ(recorder.retained().size(), 1u);
  EXPECT_TRUE(recorder.retained().begin()->second.spans.empty());

  // The replay pass rebases a retained flow's tree to its session epoch
  // and attaches it; trees for keys the recorder does not retain are
  // dropped.
  const netsim::SimTime epoch = netsim::SimTime{} + netsim::from_ms(9999.0);
  const SpanContext flow = make_flow_spans(epoch, 5.0, 200.0);
  recorder.attach_spans(obs::FlowKey{0, 0},
                        obs::rebase_to_epoch(flow.spans(), epoch));
  recorder.attach_spans(obs::FlowKey{9, 9}, flow.spans());
  ASSERT_EQ(recorder.retained().size(), 1u);
  const obs::AnomalyRecord& rec = recorder.retained().begin()->second;
  ASSERT_EQ(rec.spans.size(), 2u);
  // The shard's absolute clock is gone: the root starts 5 ms after zero,
  // and the tree itself is unchanged.
  EXPECT_EQ(rec.spans.front().start,
            netsim::SimTime{} + netsim::from_ms(5.0));
  EXPECT_EQ(rec.spans.front().end,
            netsim::SimTime{} + netsim::from_ms(205.0));
  EXPECT_EQ(rec.spans.back().end, netsim::SimTime{} + netsim::from_ms(105.0));
  EXPECT_EQ(rec.spans.back().parent, rec.spans.front().id);
  EXPECT_EQ(rec.spans.back().name, "phase");
}

TEST(FlightRecorderTest, EvictsCanonicalOldestOverCapacity) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 10.0;
  policy.ring_capacity = 2;
  obs::FlightRecorder recorder(policy);
  // Arrival order 5, 1, 3 — canonical order decides eviction, so slot 1
  // (the canonical-oldest) goes, regardless of arriving last-but-one.
  for (const std::uint64_t slot : {5u, 1u, 3u}) {
    recorder.examine_flow(slot, 0, "s", "f", 50.0, {}, {});
  }
  ASSERT_EQ(recorder.retained().size(), 2u);
  EXPECT_EQ(recorder.retained().begin()->first, (obs::FlowKey{3, 0}));
  EXPECT_EQ(recorder.retained().rbegin()->first, (obs::FlowKey{5, 0}));
  EXPECT_EQ(recorder.counts().evicted, 1u);
}

TEST(FlightRecorderTest, ShardedMergePlusFinalizeMatchesSerial) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 10.0;
  policy.ring_capacity = 3;

  // Serial: one recorder sees all eight flows in canonical order.
  obs::FlightRecorder serial(policy);
  // Sharded: even slots on one recorder, odd on another, each arriving
  // in its own order.
  obs::FlightRecorder even(policy);
  obs::FlightRecorder odd(policy);
  for (std::uint64_t slot = 0; slot < 8; ++slot) {
    serial.examine_flow(slot, 0, "s", "f", 20.0 + 1.0 * slot, {}, {});
    (slot % 2 == 0 ? even : odd)
        .examine_flow(slot, 0, "s", "f", 20.0 + 1.0 * slot, {}, {});
  }
  serial.finalize();

  obs::FlightRecorder merged(policy);
  merged.merge(odd);
  merged.merge(even);
  merged.finalize();
  EXPECT_TRUE(merged == serial);
  ASSERT_EQ(merged.retained().size(), 3u);
  EXPECT_EQ(merged.retained().begin()->first, (obs::FlowKey{5, 0}));
}

TEST(FlightRecorderTest, AnomalyDumpRoundTripsThroughTraceLoad) {
  obs::AnomalyPolicy policy;
  policy.slow_flow_ms = 10.0;
  obs::FlightRecorder recorder(policy);
  recorder.examine_flow(4, 1, "s", "doh:Quad9", 80.0, {}, {});
  ASSERT_EQ(recorder.retained().size(), 1u);

  const netsim::SimTime epoch = netsim::SimTime{} + netsim::from_ms(123.0);
  const SpanContext flow = make_flow_spans(epoch, 0.0, 80.0);
  recorder.attach_spans(obs::FlowKey{4, 1},
                        obs::rebase_to_epoch(flow.spans(), epoch));
  const obs::AnomalyRecord& rec = recorder.retained().begin()->second;

  const std::string text = obs::perfetto_trace_json(rec.spans);
  const obs::TraceLoadResult loaded = obs::parse_trace(text, "<memory>");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.spans, rec.spans);
  EXPECT_EQ(loaded.spans.front().name, "flow");
  EXPECT_EQ(loaded.spans.front().start, netsim::SimTime{});
  EXPECT_EQ(loaded.spans.front().end,
            netsim::SimTime{} + netsim::from_ms(80.0));
}

// ------------------------------------------------------------- trace load

TEST(TraceLoadTest, TruncatedPerfettoJsonIsASingleDiagnostic) {
  netsim::Simulator sim;
  SpanContext ctx;
  const auto root = ctx.open("flow", sim.now());
  ctx.close(root, sim.now());
  const std::string text = obs::perfetto_trace_json(ctx);

  const auto whole = obs::parse_trace(text, "t.json");
  ASSERT_TRUE(whole.ok()) << whole.error;
  ASSERT_EQ(whole.spans.size(), 1u);

  // Chopping the document anywhere must fail loudly, never yield a
  // partial span list.
  const auto truncated =
      obs::parse_trace(text.substr(0, text.size() / 2), "t.json");
  EXPECT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.spans.empty());
  EXPECT_NE(truncated.error.find("t.json"), std::string::npos)
      << truncated.error;
  EXPECT_NE(truncated.error.find("truncated or malformed"),
            std::string::npos)
      << truncated.error;
}

TEST(TraceLoadTest, MalformedEventsAndLinesAreDiagnosed) {
  // A well-formed document whose event is not a span.
  const auto bad_event = obs::parse_trace(
      R"({"traceEvents":[{"name":"x","ph":"X"}]})", "t.json");
  EXPECT_FALSE(bad_event.ok());
  EXPECT_NE(bad_event.error.find("traceEvents[0]"), std::string::npos)
      << bad_event.error;

  const auto no_events = obs::parse_trace(R"({"other":1})", "t.json");
  EXPECT_FALSE(no_events.ok());
  EXPECT_NE(no_events.error.find("no traceEvents array"), std::string::npos);

  const auto empty = obs::parse_trace("  \n\t ", "t.json");
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.error.find("empty trace"), std::string::npos);

  const auto zero_spans =
      obs::parse_trace(R"({"traceEvents":[]})", "t.json");
  EXPECT_FALSE(zero_spans.ok());
  EXPECT_NE(zero_spans.error.find("no spans"), std::string::npos);

  // A span-per-line dump is not a trace document.
  const auto lines = obs::parse_trace(
      "{\"id\":0,\"name\":\"flow\",\"start_us\":0,\"end_us\":5}\n"
      "{\"id\":1,\"parent\":0,\"name\":\"hop\",\"start_us\":1,"
      "\"end_us\":2,\"hop\":true,\"bytes\":64}\n",
      "s.jsonl");
  EXPECT_FALSE(lines.ok());
  EXPECT_NE(lines.error.find("invalid JSON"), std::string::npos)
      << lines.error;
  // The second line's object is where the document goes wrong.
  EXPECT_NE(lines.error.find(
                "line 2, column 1: unexpected text after the document"),
            std::string::npos)
      << lines.error;

  // Each number and reference an event carries is checked; the defect is
  // named by event index and field. Event 1 is a hop under event 0.
  const auto event = [](const std::string& first, const std::string& hop) {
    return R"({"traceEvents":[{"name":"flow","cat":"span","ph":"X",)" +
           first + R"(},{"name":"hop","cat":"hop","ph":"X",)" + hop + "}]}";
  };
  const std::string root =
      R"("ts":0,"dur":5000,"args":{"id":0,"parent":null})";
  const std::string hop =
      R"("ts":10,"dur":2500,"args":{"id":1,"parent":0,"bytes":64})";
  ASSERT_TRUE(obs::parse_trace(event(root, hop), "t.json").ok());
  const struct {
    std::string first;
    std::string hop;
    const char* where;
  } defects[] = {
      {R"("ts":0,"dur":5000,"args":{"id":0.5,"parent":null})", hop,
       "traceEvents[0].args.id"},
      {R"("ts":0,"dur":5000,"args":{"id":-7,"parent":null})", hop,
       "traceEvents[0].args.id"},
      {root, R"("ts":10,"dur":2500.7,"args":{"id":1,"parent":0})",
       "traceEvents[1].dur"},
      {root, R"("ts":10,"dur":2500,"args":{"id":1,"parent":0,"bytes":-1})",
       "traceEvents[1].args.bytes"},
      {R"("ts":1e300,"dur":5000,"args":{"id":0,"parent":null})", hop,
       "traceEvents[0].ts"},
      {root, R"("ts":10,"dur":2500,"args":{"id":1,"parent":99})",
       "traceEvents[1].args.parent"},
      {root, R"("ts":10,"dur":2500,"args":{"id":0,"parent":null})",
       "traceEvents[1].args.id"},
      {R"("ts":0,"dur":5000,"args":{"id":0,"parent":1})", hop,
       "traceEvents[0].args.parent"},
  };
  for (const auto& defect : defects) {
    const auto result =
        obs::parse_trace(event(defect.first, defect.hop), "t.json");
    EXPECT_FALSE(result.ok()) << defect.where;
    EXPECT_TRUE(result.spans.empty());
    EXPECT_NE(result.error.find(std::string("t.json: ") + defect.where + ":"),
              std::string::npos)
        << result.error;
  }
  std::string bogus = event(root, hop);
  bogus.replace(bogus.find(R"("cat":"hop")"), 11, R"("cat":"bogus")");
  const auto bogus_cat = obs::parse_trace(bogus, "t.json");
  EXPECT_NE(bogus_cat.error.find("t.json: traceEvents[1].cat:"),
            std::string::npos)
      << bogus_cat.error;
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::json::parse("").has_value());
  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::parse("'single'").has_value());
  // Numbers follow RFC 8259's grammar, not whatever strtod accepts.
  // A number past the double range is rejected, not read as infinity.
  for (const char* bad : {"+5", "007", "1.", "5.e3", ".5", "-", "1e+",
                          "1e999", "-1e999", "1e400"}) {
    EXPECT_FALSE(obs::json::parse(bad).has_value()) << bad;
    EXPECT_FALSE(obs::json::parse(std::string("[") + bad + "]").has_value())
        << bad;
  }
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},      {"-0", -0.0},  {"1.5e-3", 1.5e-3},
      {"1E+2", 100.0}, {"9007199254740992", 9007199254740992.0},
      {"1e308", 1e308}};
  for (const auto& [text, value] : good) {
    const auto number = obs::json::parse(text);
    ASSERT_TRUE(number.has_value()) << text;
    EXPECT_EQ(number->as_number(), value) << text;
  }
  ASSERT_TRUE(obs::json::parse("{\"a\":[1,2,{\"b\":null}]}").has_value());
  const auto unicode = obs::json::parse("\"\\u00e9\"");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->as_string(), "\xc3\xa9");
}

TEST(JsonParserTest, NamesTheLineAndColumnOfTheFirstDefect) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(obs::json::parse(text, &error).has_value()) << text;
    return error;
  };
  EXPECT_EQ(error_of(R"({"a":1,})"),
            "line 1, column 8: expected a string key");
  EXPECT_EQ(error_of("[1,"), "line 1, column 4: unexpected end of input");
  EXPECT_EQ(error_of("{} x"),
            "line 1, column 4: unexpected text after the document");
  EXPECT_EQ(error_of("{\n  \"a\": [\n    1, 1e999]}"),
            "line 3, column 8: number out of range");
  EXPECT_EQ(error_of("\"abc"), "line 1, column 1: unterminated string");
  EXPECT_EQ(error_of("[\"\\q\"]"), "line 1, column 3: invalid escape");
  EXPECT_EQ(error_of("{\"a\" 1}"), "line 1, column 6: expected ':'");
  EXPECT_EQ(error_of("[1 2]"), "line 1, column 4: expected ',' or ']'");
  EXPECT_EQ(error_of("nul"),
            "line 1, column 1: invalid literal (expected null)");
  EXPECT_EQ(error_of(""), "line 1, column 1: unexpected end of input");

  // A document that parses leaves the error text alone.
  std::string untouched = "unchanged";
  EXPECT_TRUE(obs::json::parse("[1]", &untouched).has_value());
  EXPECT_EQ(untouched, "unchanged");
}

TEST(JsonParserTest, EnforcesNestingDepthLimit) {
  // Well past the limit: must be rejected, not overflow the stack.
  const std::string deep_arrays(200, '[');
  EXPECT_FALSE(obs::json::parse(deep_arrays + std::string(200, ']'))
                   .has_value());
  std::string deep_objects;
  for (int i = 0; i < 200; ++i) deep_objects += "{\"k\":";
  deep_objects += "1";
  deep_objects.append(200, '}');
  EXPECT_FALSE(obs::json::parse(deep_objects).has_value());
  // Shallow nesting stays fine.
  EXPECT_TRUE(obs::json::parse(std::string(10, '[') + std::string(10, ']'))
                  .has_value());
}

TEST(JsonParserTest, UnicodeEscapeValidation) {
  // A valid surrogate pair decodes to one 4-byte UTF-8 code point.
  const auto pair = obs::json::parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->as_string(), "\xf0\x9f\x98\x80");  // U+1F600

  // Lone surrogates — high without low, low alone, high followed by a
  // non-surrogate escape — are parse errors, not garbage bytes.
  EXPECT_FALSE(obs::json::parse("\"\\ud83d\"").has_value());
  EXPECT_FALSE(obs::json::parse("\"\\ud83dx\"").has_value());
  EXPECT_FALSE(obs::json::parse("\"\\ude00\"").has_value());
  EXPECT_FALSE(obs::json::parse("\"\\ud83d\\u0041\"").has_value());

  // Malformed hex digits are rejected outright.
  EXPECT_FALSE(obs::json::parse("\"\\uzzzz\"").has_value());
  EXPECT_FALSE(obs::json::parse("\"\\u00\"").has_value());
  EXPECT_FALSE(obs::json::parse("\"\\u\"").has_value());

  // Three-byte BMP code points still decode.
  const auto bmp = obs::json::parse("\"\\u20ac\"");
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->as_string(), "\xe2\x82\xac");  // U+20AC euro sign
}

TEST(JsonParserTest, RejectsRawControlCharactersInStrings) {
  // RFC 8259 §7: U+0000 through U+001F appear in a string only escaped.
  for (const char raw : {'\n', '\t', '\x01', '\x1f'}) {
    const std::string in_value = std::string("{\"k\": \"a") + raw + "b\"}";
    const std::string in_key = std::string("{\"k") + raw + "\": 1}";
    std::string error;
    EXPECT_FALSE(obs::json::parse(in_value, &error).has_value())
        << static_cast<int>(raw);
    EXPECT_EQ(error,
              "line 1, column 9: unescaped control character in a string");
    error.clear();
    EXPECT_FALSE(obs::json::parse(in_key, &error).has_value())
        << static_cast<int>(raw);
    EXPECT_EQ(error,
              "line 1, column 4: unescaped control character in a string");
  }

  // The escaped form still loads, and escape() round-trips every
  // control character.
  const auto escaped = obs::json::parse("\"\\u0001\"");
  ASSERT_TRUE(escaped.has_value());
  EXPECT_EQ(escaped->as_string(), std::string(1, '\x01'));
  for (int c = 0x00; c <= 0x1f; ++c) {
    const std::string text(1, static_cast<char>(c));
    const auto back =
        obs::json::parse("\"" + obs::json::escape(text) + "\"");
    ASSERT_TRUE(back.has_value()) << c;
    EXPECT_EQ(back->as_string(), text) << c;
  }
}

// -------------------------------------------------- outcome taxonomy

TEST(OutcomeTest, ClassificationPrecedence) {
  using obs::FlowSignals;
  using obs::Outcome;
  using obs::classify_flow_outcome;

  // Successes: fallback wins over brownout wins over plain ok.
  EXPECT_EQ(classify_flow_outcome({.ok = true}), Outcome::kOk);
  EXPECT_EQ(classify_flow_outcome({.ok = true, .used_fallback = true}),
            Outcome::kFallbackOk);
  EXPECT_EQ(classify_flow_outcome({.ok = true, .brownout_delays = 2}),
            Outcome::kBrownoutDegraded);
  EXPECT_EQ(classify_flow_outcome(
                {.ok = true, .used_fallback = true, .brownout_delays = 2}),
            Outcome::kFallbackOk);

  // Failures: a failed fallback is the terminal cause, then the fault
  // ladder unreachable > outage > blackout, then plain give-up.
  EXPECT_EQ(classify_flow_outcome({}), Outcome::kTimeoutGiveup);
  EXPECT_EQ(classify_flow_outcome({.used_fallback = true}),
            Outcome::kFallbackFailed);
  EXPECT_EQ(classify_flow_outcome(
                {.used_fallback = true, .provider_outage = true}),
            Outcome::kFallbackFailed);
  EXPECT_EQ(classify_flow_outcome({.provider_unreachable = true}),
            Outcome::kUnreachable);
  EXPECT_EQ(classify_flow_outcome(
                {.provider_unreachable = true, .provider_outage = true}),
            Outcome::kUnreachable);
  EXPECT_EQ(classify_flow_outcome({.provider_outage = true}),
            Outcome::kProviderOutage);
  EXPECT_EQ(classify_flow_outcome(
                {.provider_outage = true, .blackout = true}),
            Outcome::kProviderOutage);
  EXPECT_EQ(classify_flow_outcome({.blackout = true}),
            Outcome::kBlackout);

  // Success flags mask every failure signal.
  EXPECT_EQ(classify_flow_outcome({.ok = true, .provider_outage = true,
                                   .blackout = true}),
            Outcome::kOk);

  for (int i = 0; i < obs::kOutcomeCount; ++i) {
    const auto outcome = static_cast<Outcome>(i);
    EXPECT_FALSE(std::string_view(obs::to_string(outcome)).empty()) << i;
    EXPECT_EQ(obs::is_success(outcome),
              outcome == Outcome::kOk || outcome == Outcome::kFallbackOk ||
                  outcome == Outcome::kBrownoutDegraded)
        << i;
  }
}

// ------------------------------------------------------- SLO tracker

TEST(SloTrackerTest, RecordsAggregateAndCountryCells) {
  obs::SloConfig config;
  config.window = netsim::from_ms(1000.0);
  config.p99_objective_ms = 100.0;
  obs::SloTracker tracker(config);
  tracker.record("Quad9", "SE", netsim::from_ms(500.0),
                 obs::Outcome::kOk, 20.0, true);
  tracker.record("Quad9", "SE", netsim::from_ms(1500.0),
                 obs::Outcome::kTimeoutGiveup);
  tracker.record("Quad9", "DE", netsim::from_ms(1500.0),
                 obs::Outcome::kOk, 150.0, true);  // slow
  // Pre-epoch offsets clamp into window 0 instead of going negative.
  tracker.record("Quad9", "SE", netsim::from_ms(-50.0),
                 obs::Outcome::kBlackout);

  ASSERT_EQ(tracker.cells().size(), 3u);  // aggregate + DE + SE
  const auto& aggregate = tracker.cells().at({"Quad9", ""});
  ASSERT_EQ(aggregate.size(), 2u);
  EXPECT_EQ(aggregate.at(0).total(), 2u);
  EXPECT_EQ(aggregate.at(1).total(), 2u);
  EXPECT_EQ(aggregate.at(1).slow, 1u);
  EXPECT_EQ(aggregate.at(0).outcomes[static_cast<int>(
                obs::Outcome::kBlackout)],
            1u);

  // One budget per key, in name order: the aggregate sorts first.
  const std::vector<obs::SloBudget> budgets = tracker.budgets();
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[1].country, "DE");
  EXPECT_EQ(budgets[2].country, "SE");
  const obs::SloBudget& budget = budgets[0];
  EXPECT_EQ(budget.provider, "Quad9");
  EXPECT_EQ(budget.country, "");
  EXPECT_EQ(budget.total, 4u);
  EXPECT_EQ(budget.errors, 2u);
  EXPECT_EQ(budget.slow, 1u);
  EXPECT_DOUBLE_EQ(budget.availability, 0.5);
  // 2 errors / (4 * 0.001 budget) = 500x over (modulo the 1 - 0.999
  // representation error in the budget denominator).
  EXPECT_NEAR(budget.error_budget_consumed, 500.0, 1e-9);
  // 1 slow / (4 * 0.01) = 25x the latency budget.
  EXPECT_NEAR(budget.latency_budget_consumed, 25.0, 1e-9);
}

TEST(SloTrackerTest, SplitMergeEqualsWholeRecording) {
  obs::SloConfig config;
  config.window = netsim::from_ms(500.0);
  const auto record_range = [&](obs::SloTracker& tracker, int from,
                                int to) {
    for (int i = from; i < to; ++i) {
      const auto outcome = i % 7 == 0 ? obs::Outcome::kProviderOutage
                           : i % 5 == 0
                               ? obs::Outcome::kFallbackOk
                               : obs::Outcome::kOk;
      tracker.record(i % 2 == 0 ? "Google" : "Quad9", i % 3 == 0 ? "SE"
                                                                 : "BR",
                     netsim::from_ms(40.0 * i), outcome, 10.0 + i, true);
    }
  };
  obs::SloTracker whole(config);
  record_range(whole, 0, 100);

  obs::SloTracker left(config), middle(config), right(config);
  record_range(left, 0, 30);
  record_range(middle, 30, 71);
  record_range(right, 71, 100);
  // Merge in non-chronological order: counts are commutative integers.
  obs::SloTracker merged(config);
  merged.merge(right);
  merged.merge(left);
  merged.merge(middle);

  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.cells(), whole.cells());
  EXPECT_EQ(merged.evaluate(), whole.evaluate());
}

TEST(SloTrackerTest, BurnRateAlertsAreEdgeTriggered) {
  obs::SloConfig config;
  config.window = netsim::from_ms(60'000.0);  // 1-minute windows
  config.fast_short = netsim::from_ms(60'000.0);   // 1 window
  config.fast_long = netsim::from_ms(300'000.0);   // 5 windows
  config.fast_burn = 10.0;
  // Push the slow pair out of reach so only the fast pair can fire.
  config.slow_burn = 1e9;
  obs::SloTracker tracker(config);

  // Windows 0-1 healthy, 2-4 hard down, 5-9 healthy again, 12 down.
  const auto fill = [&](int window, int good, int bad) {
    for (int i = 0; i < good; ++i) {
      tracker.record("Google", "", netsim::from_ms(window * 60'000.0),
                     obs::Outcome::kOk);
    }
    for (int i = 0; i < bad; ++i) {
      tracker.record("Google", "", netsim::from_ms(window * 60'000.0),
                     obs::Outcome::kProviderOutage);
    }
  };
  for (const int w : {0, 1}) fill(w, 20, 0);
  for (const int w : {2, 3, 4}) fill(w, 0, 20);
  for (const int w : {5, 6, 7, 8, 9}) fill(w, 20, 0);
  fill(12, 0, 20);

  const std::vector<obs::SloAlert> alerts = tracker.evaluate();
  // One edge at the first bad window, one after re-arming — not one
  // alert per bad window.
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].provider, "Google");
  EXPECT_EQ(alerts[0].severity, "page");
  EXPECT_EQ(alerts[0].window_start_ms, 2 * 60'000);
  EXPECT_GE(alerts[0].burn_short, config.fast_burn);
  EXPECT_GE(alerts[0].burn_long, config.fast_burn);
  EXPECT_EQ(alerts[1].window_start_ms, 12 * 60'000);
}

}  // namespace
}  // namespace dohperf
