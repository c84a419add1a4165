// Footprint and allocation ratchets for a campaign run.
//
// This binary replaces the global operator new/delete and counts the
// allocations made and the bytes requested and not yet released.
//
// - Sinks: one small two-shard streaming campaign with faults, SLOs, the
//   shared cache and connection reuse (render_digest_test's spec) runs
//   once; then each merged sink of the RunResult is freed in turn, and
//   the bytes it releases must stay at or below a ceiling about 1.25x the
//   footprint measured when the sinks moved from string-keyed trees to
//   interned labels and flat cells (obs::LabeledTracks, DESIGN.md §5n). A
//   change that makes the cells heavier again — a dense bucket array, one
//   more histogram per cell, a tree node per cell — fails here, naming the
//   sink that grew.
// - Allocations per session: a small retained one-shard cold campaign
//   (cold_paper's shape over one country) runs on a world built
//   beforehand, and the allocations scenario::run makes, divided by its
//   sessions, must stay at or below a ceiling about 1.25x the count
//   measured when the sinks took interned labels (DESIGN.md §5n), after
//   domain names went flat and the message path stopped copying
//   (DESIGN.md §5j). A change that brings back per-hop copies of
//   message sections or header strings, or stores names on the heap
//   again, fails here. Copying a name that fits inline allocates
//   nothing, so name copies are not gated here; BM_NameCopy in
//   bench/micro_dns_codec times them.
//
// Both counts depend on the standard library build. They were measured
// with GCC 12's libstdc++, in the default and the asan presets alike
// (the sanitizers leave the count unchanged). The CI toolchain's
// (Ubuntu 24.04) count has not been measured, so whether the 1.25x
// margin covers it is not known. Lower a ceiling when a change lowers its
// count; raising one needs a CHANGES.md line that says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "stats/quantile_sketch.h"
#include "world/world_model.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

// Every block starts with a header that records the requested size, as
// wide as the block's alignment so the caller's pointer stays aligned.
std::size_t header_size(std::size_t align) {
  return std::max<std::size_t>(__STDCPP_DEFAULT_NEW_ALIGNMENT__, align);
}

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  const std::size_t header = header_size(align);
  const std::size_t total = (header + size + header - 1) / header * header;
  void* base = align > __STDCPP_DEFAULT_NEW_ALIGNMENT__
                   ? std::aligned_alloc(align, total)
                   : std::malloc(total);
  if (base == nullptr) return nullptr;
  unsigned char* block = static_cast<unsigned char*>(base) + header;
  std::memcpy(block - sizeof size, &size, sizeof size);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return block;
}

void counted_free(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  unsigned char* block = static_cast<unsigned char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, block - sizeof size, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  std::free(block - header_size(align));
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefault = 0;

}  // namespace

// Every replaceable form, so no allocation or release bypasses the count
// (a sanitizer runtime defines each of them too).
void* operator new(std::size_t n) { return counted_new(n, kDefault); }
void* operator new[](std::size_t n) { return counted_new(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p, kDefault); }
void operator delete[](void* p) noexcept { counted_free(p, kDefault); }
void operator delete(void* p, std::size_t) noexcept {
  counted_free(p, kDefault);
}
void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p, kDefault);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p, kDefault);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p, kDefault);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}

namespace dohperf {
namespace {

constexpr const char* kSpec =
    "name = \"sink-footprint\"\n"
    "sink = \"streaming\"\n"
    "[world]\n"
    "seed = 7\n"
    "client_scale = 0.03\n"
    "[campaign]\n"
    "threads = 2\n"
    "runs_per_client = 1\n"
    "atlas_measurements_per_country = 10\n"
    "session_spacing_ms = 60000\n"
    "[faults]\n"
    "loss_spike_probability = 0.25\n"
    "brownout_probability = 0.25\n"
    "provider_outage_period_ms = 3600000\n"
    "provider_outage_duration_ms = 600000\n"
    "provider_outage_stagger_ms = 900000\n"
    "regional_blackout_period_ms = 7200000\n"
    "regional_blackout_duration_ms = 300000\n"
    "[slo]\n"
    "enabled = true\n"
    "window_ms = 300000\n"
    "p99_objective_ms = 2000\n"
    "[cache]\n"
    "enabled = true\n"
    "[reuse]\n"
    "enabled = true\n"
    "queries_per_session = 4\n";

/// Heap bytes released by destroying `sink` (left moved-from, empty).
template <typename Sink>
std::int64_t bytes_freed(Sink& sink) {
  const std::int64_t before = g_live_bytes.load();
  { const Sink gone = std::move(sink); }
  return before - g_live_bytes.load();
}

TEST(SinkFootprintTest, HistogramTypesStayCompact) {
  EXPECT_LE(sizeof(obs::LatencyHistogram), 32u);
  EXPECT_LE(sizeof(stats::QuantileSketch), 64u);
}

TEST(SinkFootprintTest, MergedSinksStayUnderTheirCeilings) {
  const scenario::SpecParseResult parsed =
      scenario::parse_spec(kSpec, "<sink-footprint>");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  scenario::RunResult r = scenario::run(parsed.doc.base);
  ASSERT_EQ(r.stats.shards, 2);
  ASSERT_FALSE(r.series.latencies().empty());
  ASSERT_FALSE(r.attribution.empty());
  ASSERT_FALSE(r.slo.empty());
  ASSERT_GT(r.sink.sessions(), 0u);
  ASSERT_FALSE(r.metrics.histograms().empty());

  // Ceilings in bytes, about 1.25x the footprint with interned labels and
  // flat cells (series 1,126,126; SLO 232,080; stream sink 172,792 with
  // GCC 12's libstdc++). Two rose and keep their ceilings: attribution
  // from 2,111,728 to 2,450,608 bytes (the growth slack of a vector of
  // 440-byte entries; shrinking it after the merge raised peak RSS
  // instead) and metrics from 9,552 to 9,856 (two small hash indexes in
  // place of six map nodes).
  struct Freed {
    const char* sink;
    std::int64_t bytes;
    std::int64_t ceiling;
  };
  const Freed freed[] = {
      {"series", bytes_freed(r.series), 1'408'000},
      {"attribution", bytes_freed(r.attribution), 2'640'000},
      {"slo", bytes_freed(r.slo), 290'000},
      {"stream sink", bytes_freed(r.sink), 216'000},
      {"metrics", bytes_freed(r.metrics), 12'000},
  };
  for (const Freed& f : freed) {
    std::printf("%s released %lld bytes (ceiling %lld)\n", f.sink,
                static_cast<long long>(f.bytes),
                static_cast<long long>(f.ceiling));
    EXPECT_GT(f.bytes, 0) << f.sink;
    EXPECT_LE(f.bytes, f.ceiling) << f.sink << " released " << f.bytes
                                  << " bytes";
  }
}

// cold_paper's shape over one country: retained rows, one shard, one
// session per exit.
constexpr const char* kColdSpec =
    "name = \"alloc-ratchet\"\n"
    "sink = \"retained\"\n"
    "[world]\n"
    "seed = 42\n"
    "client_scale = 0.5\n"
    "only_countries = [\"SE\"]\n"
    "[campaign]\n"
    "threads = 1\n"
    "runs_per_client = 1\n";

TEST(SinkFootprintTest, ColdSessionAllocationsStayUnderTheirCeiling) {
  const scenario::SpecParseResult parsed =
      scenario::parse_spec(kColdSpec, "<alloc-ratchet>");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  world::WorldModel world(parsed.doc.base.world);

  const std::int64_t before = g_allocations.load();
  const scenario::RunResult r = scenario::run(parsed.doc.base, world);
  const std::int64_t allocations = g_allocations.load() - before;
  ASSERT_EQ(r.stats.shards, 1);
  ASSERT_GT(r.stats.sessions, 0u);
  ASSERT_FALSE(r.dataset.doh().empty());

  // About 1.25x the count with interned sink labels: 245.5 per session
  // (34,610 over 141 sessions) with GCC 12's libstdc++, run alone; 255.5
  // with string-keyed sinks, 273.0 when names went flat. The tree before
  // that made 683.0 (96,307), so heap-stored names or a per-hop copy of a
  // message section or header string put back on this path fail here.
  constexpr double kCeiling = 307.0;
  const double per_session = static_cast<double>(allocations) /
                             static_cast<double>(r.stats.sessions);
  std::printf("%lld allocations over %llu sessions: %.1f per session\n",
              static_cast<long long>(allocations),
              static_cast<unsigned long long>(r.stats.sessions),
              per_session);
  EXPECT_LE(per_session, kCeiling);
}

}  // namespace
}  // namespace dohperf
