// Unit tests for the million-session scaling pieces: the mergeable
// quantile sketch, the deterministic string interner, the coroutine-frame
// slab arena, the nth_element quantile fast path, and the streaming
// sink's exact per-client run stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "measure/stream_sink.h"
#include "obs/string_table.h"
#include "netsim/arena.h"
#include "netsim/random.h"
#include "netsim/task.h"
#include "stats/quantile_sketch.h"
#include "stats/summary.h"

namespace dohperf {
namespace {

// --------------------------------------------------------- QuantileSketch

std::vector<double> latency_sample(std::size_t n, std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Latency-shaped: a bulk around 50-400 ms plus a long tail.
    double v = rng.uniform(20.0, 400.0);
    if (rng.bernoulli(0.05)) v *= rng.uniform(3.0, 12.0);
    values.push_back(v);
  }
  return values;
}

TEST(QuantileSketchTest, QuantilesTrackExactWithinBucketResolution) {
  const std::vector<double> values = latency_sample(5000, 11);
  stats::QuantileSketch sketch;
  for (const double v : values) sketch.record(v);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(sketch.count(), values.size());
  for (const double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = stats::quantile_sorted(sorted, q);
    // 1/32-octave buckets are ~2.2% wide; interpolation keeps the
    // estimate inside the bucket.
    EXPECT_NEAR(sketch.quantile(q), exact, exact * 0.025) << "q=" << q;
  }
}

TEST(QuantileSketchTest, ExtremesAndDegenerateCases) {
  stats::QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  EXPECT_TRUE(empty.curve(10).empty());

  stats::QuantileSketch one;
  one.record(123.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 123.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 123.5);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 123.5);

  stats::QuantileSketch s;
  s.record(0.001);    // under kMinValue -> underflow bucket
  s.record(5.0e8);    // beyond the top octave -> overflow bucket
  EXPECT_DOUBLE_EQ(s.min(), 0.001);  // min/max stay exact regardless
  EXPECT_DOUBLE_EQ(s.max(), 5.0e8);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0e8);
  // Every estimate is clamped into [min, max].
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_GE(s.quantile(q), s.min());
    EXPECT_LE(s.quantile(q), s.max());
  }
}

TEST(QuantileSketchTest, BucketEdges) {
  using stats::QuantileSketch;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Underflow bucket: below kMinValue, plus NaN, negatives and -inf.
  for (const double v : {0.0, 0.0625 * 0.999, -5.0, kNaN, -kInf}) {
    EXPECT_EQ(QuantileSketch::bucket_index(v), 0u) << v;
  }
  // The first log bucket starts exactly at kMinValue; 1/32-octave widths
  // put one doubling 32 buckets up.
  EXPECT_EQ(QuantileSketch::bucket_index(QuantileSketch::kMinValue), 1u);
  EXPECT_EQ(QuantileSketch::bucket_index(2 * QuantileSketch::kMinValue),
            33u);
  // Overflow from the range top (2^20 ms) up, +inf included.
  for (const double v : {1048576.0, 1e12, kInf}) {
    EXPECT_EQ(QuantileSketch::bucket_index(v), QuantileSketch::kBuckets - 1)
        << v;
  }

  // Every lower edge (the overflow bucket's included) lands in its own
  // bucket, and the double just below it in the bucket below: each
  // bucket is exactly [lower_edge(b), lower_edge(b + 1)).
  for (std::size_t b = 1; b < QuantileSketch::kBuckets; ++b) {
    const double edge = QuantileSketch::lower_edge(b);
    EXPECT_EQ(QuantileSketch::bucket_index(edge), b) << b;
    EXPECT_EQ(QuantileSketch::bucket_index(std::nextafter(edge, 0.0)), b - 1)
        << b;
  }
}

TEST(QuantileSketchTest, MergeIsBitIdenticalUnderPermutedOrder) {
  const std::vector<double> values = latency_sample(4096, 17);

  // Shard the sample eight ways, round-robin (like exits across shards).
  std::vector<stats::QuantileSketch> shards(8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    shards[i % shards.size()].record(values[i]);
  }

  const auto merge_in_order = [&](const std::vector<std::size_t>& order) {
    stats::QuantileSketch out;
    for (const std::size_t s : order) out.merge(shards[s]);
    return out;
  };

  const stats::QuantileSketch forward =
      merge_in_order({0, 1, 2, 3, 4, 5, 6, 7});
  const stats::QuantileSketch backward =
      merge_in_order({7, 6, 5, 4, 3, 2, 1, 0});
  const stats::QuantileSketch shuffled =
      merge_in_order({3, 0, 6, 1, 7, 2, 5, 4});

  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == shuffled);

  // ... and identical to the unsharded fold.
  stats::QuantileSketch serial;
  for (const double v : values) serial.record(v);
  EXPECT_TRUE(forward == serial);
  EXPECT_EQ(forward.count(), values.size());
}

TEST(QuantileSketchTest, CurveIsMonotoneAndBounded) {
  stats::QuantileSketch sketch;
  for (const double v : latency_sample(1000, 23)) sketch.record(v);
  const auto curve = sketch.curve(50);
  ASSERT_EQ(curve.size(), 51u);  // 0..points inclusive, like EmpiricalCdf
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_GE(curve.front().first, sketch.min());
  EXPECT_LE(curve.back().first, sketch.max());
}

/// A QuantileSketch as it stood before its buckets went sparse: a dense
/// count per bucket, the NaN-free min and max (-0 below +0), and the
/// quantile rule written over the whole array.
struct DenseSketchReference {
  using Sketch = stats::QuantileSketch;
  std::array<std::uint64_t, Sketch::kBuckets> counts{};
  std::uint64_t count = 0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();

  void record(double v) {
    ++counts[Sketch::bucket_index(v)];
    if (count++ == 0 || std::isnan(min)) {
      min = max = v;
    } else if (!std::isnan(v)) {
      if (v < min || (v == min && std::signbit(v))) min = v;
      if (v > max || (v == max && !std::signbit(v))) max = v;
    }
  }

  [[nodiscard]] double quantile(double q) const {
    if (count == 0) return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    const double rank = q * static_cast<double>(count - 1);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < Sketch::kBuckets; ++b) {
      const std::uint64_t n = counts[b];
      if (n == 0) continue;
      if (rank < static_cast<double>(before + n)) {
        const double lo = std::max(Sketch::lower_edge(b), min);
        const double hi = std::min(
            b + 1 < Sketch::kBuckets ? Sketch::lower_edge(b + 1) : max, max);
        const double f =
            (rank - static_cast<double>(before)) / static_cast<double>(n);
        return std::clamp(lo + f * (hi - lo), min, max);
      }
      before += n;
    }
    return max;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(QuantileSketchTest, SparseStoreMatchesDenseReference) {
  using Sketch = stats::QuantileSketch;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Every bucket edge and both its neighbours, then 0, negatives, NaN,
  // +inf and values far past the top bucket, then a latency bulk to
  // reach 10^5 values. The eight parts draw their bulk from shifted
  // bands, so their bucket sets overlap only in part and merges insert
  // new buckets before, between and after existing ones.
  std::vector<double> special;
  for (std::size_t b = 0; b < Sketch::kBuckets; ++b) {
    const double edge = Sketch::lower_edge(b);
    special.insert(special.end(), {edge, std::nextafter(edge, -kInf),
                                   std::nextafter(edge, kInf)});
  }
  special.insert(special.end(),
                 {0.0, -0.0, -1.0, -1e-300, kNaN, kInf, 0.0625 * 0x1p24 * 3,
                  5e8, 1e300, std::numeric_limits<double>::max()});
  std::vector<std::vector<double>> parts(8);
  // NaN opens one part, so that part's sketch starts from a NaN min/max.
  parts[5].push_back(kNaN);
  for (std::size_t i = 0; i < special.size(); ++i) {
    parts[i % parts.size()].push_back(special[i]);
  }
  netsim::Rng rng(4242);
  for (std::size_t i = special.size(); i < 100000; ++i) {
    const std::size_t p = i % parts.size();
    const double band = static_cast<double>(p);
    parts[p].push_back(std::exp2(rng.uniform(band - 6.0, band + 14.0)));
  }

  DenseSketchReference reference;
  Sketch serial;
  std::vector<Sketch> part_sketches(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const double v : parts[p]) {
      reference.record(v);
      serial.record(v);
      part_sketches[p].record(v);
    }
  }
  ASSERT_GE(reference.count, 100000u);

  const auto merged = [&](const std::vector<std::size_t>& order) {
    Sketch out;
    for (const std::size_t p : order) out.merge(part_sketches[p]);
    return out;
  };
  const std::vector<Sketch> results = {
      serial, merged({0, 1, 2, 3, 4, 5, 6, 7}),
      merged({7, 6, 5, 4, 3, 2, 1, 0}), merged({3, 0, 6, 1, 7, 2, 5, 4})};
  for (const Sketch& sketch : results) {
    EXPECT_TRUE(sketch == serial);
    EXPECT_EQ(sketch.count(), reference.count);
    EXPECT_EQ(bits(sketch.min()), bits(reference.min));
    EXPECT_EQ(bits(sketch.max()), bits(reference.max));
    for (std::size_t b = 0; b <= Sketch::kBuckets; ++b) {
      EXPECT_EQ(sketch.bucket_count(b),
                b < Sketch::kBuckets ? reference.counts[b] : 0u)
          << "bucket " << b;
    }
    for (int k = 0; k <= 100; ++k) {
      const double q = k / 100.0;
      EXPECT_EQ(bits(sketch.quantile(q)), bits(reference.quantile(q)))
          << "q=" << q;
    }
  }

  // min/max ignore NaN and order -0 below +0 in every record order.
  const double zeros[] = {kNaN, -0.0, 0.0};
  std::vector<Sketch> orders;
  for (const auto& order : {std::array{0, 1, 2}, std::array{1, 2, 0},
                            std::array{2, 0, 1}, std::array{2, 1, 0}}) {
    Sketch s;
    for (const int i : order) s.record(zeros[i]);
    EXPECT_EQ(bits(s.min()), bits(-0.0));
    EXPECT_EQ(bits(s.max()), bits(0.0));
    orders.push_back(s);
  }
  for (const Sketch& s : orders) EXPECT_TRUE(s == orders.front());
}

// ------------------------------------------------------------ obs::StringTable

TEST(StringTableTest, IdsAreDenseAndFirstInternOrdered) {
  obs::StringTable table;
  EXPECT_EQ(table.intern("Cloudflare"), 0u);
  EXPECT_EQ(table.intern("Google"), 1u);
  EXPECT_EQ(table.intern("Cloudflare"), 0u);  // idempotent
  EXPECT_EQ(table.intern("SE"), 2u);
  EXPECT_EQ(table.size(), 3u);

  EXPECT_EQ(table.find("Google"), 1u);
  EXPECT_EQ(table.find("absent"), obs::kNoStrId);
  EXPECT_EQ(table.name(2), "SE");
  EXPECT_EQ(table.name(obs::kNoStrId), "");
}

TEST(StringTableTest, SameInternSequenceYieldsIdenticalTables) {
  // The campaign pre-interns providers then countries in canonical order
  // on every run; two runs of the same sequence must agree bit-for-bit —
  // this is what makes StrIds comparable across shard counts.
  const auto build = [] {
    obs::StringTable t;
    for (const char* s :
         {"Cloudflare", "Google", "NextDNS", "Quad9", "US", "SE", "BR"}) {
      t.intern(s);
    }
    return t;
  };
  EXPECT_TRUE(build() == build());

  obs::StringTable other;
  other.intern("Google");  // different order -> different ids
  other.intern("Cloudflare");
  EXPECT_FALSE(build() == other);
}

TEST(StringTableTest, CopiesAreIndependentAndEqual) {
  obs::StringTable original;
  original.intern("Cloudflare");
  original.intern("SE");

  obs::StringTable copy = original;
  EXPECT_TRUE(copy == original);
  EXPECT_EQ(copy.find("SE"), 1u);  // lookup map rebuilt onto own storage

  original.intern("BR");  // diverge the source
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.find("BR"), obs::kNoStrId);
  EXPECT_EQ(copy.name(0), "Cloudflare");
}

// ------------------------------------------------------------------ Arena

TEST(ArenaTest, RecyclesBlocksThroughFreeLists) {
  netsim::Arena arena;
  void* a = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_EQ(arena.stats().reused, 0u);
  EXPECT_EQ(arena.stats().live_bytes, netsim::Arena::class_size(100));

  arena.deallocate(a, 100);
  EXPECT_EQ(arena.stats().live_bytes, 0u);

  // Same size class -> served from the free list, same block back.
  void* b = arena.allocate(90);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.stats().reused, 1u);
  arena.deallocate(b, 90);

  EXPECT_EQ(arena.stats().high_water_bytes, netsim::Arena::class_size(100));
  EXPECT_EQ(arena.stats().slab_bytes, netsim::Arena::kSlabBytes);
}

TEST(ArenaTest, ResetKeepsSlabsAndDropsFreeLists) {
  netsim::Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(arena.allocate(256));
  for (void* p : blocks) arena.deallocate(p, 256);
  const std::uint64_t slab_bytes = arena.stats().slab_bytes;

  arena.reset();
  EXPECT_EQ(arena.stats().live_bytes, 0u);
  EXPECT_EQ(arena.stats().slab_bytes, slab_bytes);  // capacity retained

  // Allocation after reset bumps from the rewound cursor, no new slab.
  (void)arena.allocate(256);
  EXPECT_EQ(arena.stats().slab_bytes, slab_bytes);
}

TEST(ArenaTest, FrameAllocationRoutesByHeaderAcrossScopes) {
  netsim::Arena arena;
  void* in_scope = nullptr;
  {
    netsim::ArenaScope scope(arena);
    EXPECT_EQ(netsim::Arena::current(), &arena);
    in_scope = netsim::arena_frame_allocate(128);
    EXPECT_GT(arena.stats().allocations, 0u);
    EXPECT_GT(arena.stats().live_bytes, 0u);
  }
  EXPECT_EQ(netsim::Arena::current(), nullptr);
  // Freed after the scope ended: the header still routes to the arena.
  netsim::arena_frame_free(in_scope);
  EXPECT_EQ(arena.stats().live_bytes, 0u);

  // Outside any scope the global heap serves the frame; freeing must not
  // touch the arena.
  void* global = netsim::arena_frame_allocate(128);
  netsim::arena_frame_free(global);
  EXPECT_EQ(arena.stats().live_bytes, 0u);
}

TEST(ArenaTest, OversizedFramesFallBackToGlobalHeap) {
  netsim::Arena arena;
  netsim::ArenaScope scope(arena);
  void* big = netsim::arena_frame_allocate(netsim::Arena::kMaxBlockBytes);
  EXPECT_EQ(arena.stats().fallbacks, 1u);
  EXPECT_EQ(arena.stats().live_bytes, 0u);  // not arena-resident
  netsim::arena_frame_free(big);  // must route to ::operator delete
}

netsim::Task<int> trivial_coroutine() { co_return 7; }

TEST(ArenaTest, CoroutineFramesComeFromTheInstalledArena) {
  netsim::Arena arena;
  {
    netsim::ArenaScope scope(arena);
    netsim::Task<int> t = trivial_coroutine();
    EXPECT_EQ(t.result(), 7);
    EXPECT_GT(arena.stats().allocations, 0u);
    EXPECT_GT(arena.stats().live_bytes, 0u);  // frame alive via the Task
  }
  EXPECT_EQ(arena.stats().live_bytes, 0u);  // Task destroyed, frame freed
  EXPECT_GT(arena.stats().high_water_bytes, 0u);
}

// --------------------------------------------------- nth_element quantile

TEST(QuantileFastPathTest, MatchesSortBasedQuantileBitForBit) {
  const std::vector<double> values = latency_sample(997, 31);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999, 1.0}) {
    const double reference = stats::quantile_sorted(sorted, q);
    EXPECT_EQ(stats::quantile(values, q), reference) << "q=" << q;
    std::vector<double> scratch = values;
    EXPECT_EQ(stats::quantile_inplace(scratch, q), reference) << "q=" << q;
  }
  std::vector<double> scratch = values;
  EXPECT_EQ(stats::median_inplace(scratch),
            stats::quantile_sorted(sorted, 0.5));
}

// ------------------------------------------------- StreamSink run stores

// Exact client medians keep every run up to run_capacity, however large:
// 300 runs of one client, folded into one sink and split over two merged
// sinks (as two shards would), must both yield the median of all 300.
TEST(StreamSinkTest, ClientMediansKeepEveryRunPast255) {
  constexpr int kRuns = 300;
  obs::StringTable names;
  const obs::StrId provider = names.intern("Cloudflare");
  const obs::StrId iso2 = names.intern("US");
  measure::StreamSinkConfig cfg;
  cfg.client_stats = true;
  cfg.run_capacity = kRuns;
  const auto make_sink = [&] {
    return measure::StreamSink(cfg, kRuns, {1}, {iso2}, {100.0}, {provider},
                               names);
  };
  measure::StreamSink folded = make_sink();
  measure::StreamSink even = make_sink();
  measure::StreamSink odd = make_sink();
  for (int run = 0; run < kRuns; ++run) {
    // Run r measures DoH1 = DoHR = 100 + r ms and Do53 = 50 + r ms.
    measure::DohRecord doh;
    doh.exit_id = 1;
    doh.iso2 = iso2;
    doh.provider = provider;
    doh.run = run;
    doh.tdoh_ms = 100.0 + run;
    doh.tdohr_ms = doh.tdoh_ms;
    const measure::Do53Record do53{1, iso2, run, false, 50.0 + run};
    folded.fold({&doh, 1}, {&do53, 1}, 0);
    (run % 2 == 0 ? even : odd).fold({&doh, 1}, {&do53, 1}, 0);
  }
  even.merge(odd);
  for (const measure::StreamSink* sink : {&folded, &even}) {
    const auto stats = sink->client_provider_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].tdoh_ms, 249.5);
    EXPECT_EQ(stats[0].tdohr_ms, 249.5);
    EXPECT_EQ(stats[0].do53_ms, 199.5);
  }
}

}  // namespace
}  // namespace dohperf
