// Streaming campaign sink: fold rows into aggregates as sessions finish.
//
// The retained-rows Dataset keeps every DohRecord/Do53Record resident —
// O(sessions) memory — which is fine at paper scale (~22k clients) and
// exactly wrong at a million sessions. A StreamSink instead absorbs each
// session's rows the moment its coroutine completes and keeps only:
//
//   * mergeable quantile sketches (DoH1, DoHR and Do53 over all rows,
//     DoH1 and DoHR per provider, DoH1 per (country, provider) — the
//     fig4 CDF and fig5 median paths), 48 bytes plus 16 per occupied
//     bucket each (a per-country sketch holds tens of buckets);
//   * per-provider client bitsets over the canonical exit enumeration
//     (the analysis-country filter);
//   * counters (sessions, rows, failures);
//   * optionally, dense per-(client, provider) run values for exact
//     client medians — O(clients x providers x runs) memory, intended
//     for paper-scale parity checks, off by default and off in the
//     million-session sweep.
//
// Every aggregate has an order-canonical merge (integer bucket adds,
// bitset ORs, disjoint array fills), so per-shard sinks merged in shard
// order are bit-identical to the serial fold for any shard count — the
// same determinism contract the retained Dataset carries.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "measure/dataset.h"
#include "obs/string_table.h"
#include "stats/quantile_sketch.h"

namespace dohperf::measure {

struct StreamSinkConfig {
  /// Keep dense per-(client, provider) run values so exact client-median
  /// stats (Tables 4-6) can be produced from the stream. Costs
  /// O(clients x providers x run_capacity) doubles — enable at paper
  /// scale, leave off for million-session sweeps.
  bool client_stats = false;
  /// Values retained per (client, provider) metric; runs beyond this are
  /// folded into the sketches but not the exact client medians.
  int run_capacity = 8;
};

class StreamSink {
 public:
  StreamSink() = default;

  /// The canonical exit enumeration (ids, country ids, NS distances in
  /// enumeration order), the provider catalog ids, and the pre-interned
  /// name table — all produced on the main thread before sharding.
  StreamSink(StreamSinkConfig cfg, int runs_per_client,
             std::vector<std::uint64_t> exit_ids,
             std::vector<obs::StrId> exit_iso2,
             std::vector<double> exit_ns_distance,
             std::vector<obs::StrId> provider_ids, obs::StringTable names);

  /// Folds one completed session's rows. Called by the owning shard in
  /// canonical slot order.
  void fold(std::span<const DohRecord> doh,
            std::span<const Do53Record> do53, std::uint64_t failed);

  /// Absorbs another shard's sink (same world / config). Bucket adds and
  /// bitset ORs only — order-canonical.
  void merge(const StreamSink& other);

  /// Campaign bookkeeping (mirrors Dataset's fields).
  std::uint64_t discarded_mismatch = 0;

  // ---- Counters -------------------------------------------------------
  [[nodiscard]] std::uint64_t sessions() const { return sessions_; }
  [[nodiscard]] std::uint64_t failed_measurements() const { return failed_; }
  [[nodiscard]] std::uint64_t doh_rows() const { return doh_rows_; }
  [[nodiscard]] std::uint64_t do53_rows() const { return do53_rows_; }
  [[nodiscard]] std::uint64_t atlas_rows() const { return atlas_rows_; }
  [[nodiscard]] std::size_t client_count() const { return exit_ids_.size(); }

  // ---- Sketch queries (fig4 CDFs, medians) ----------------------------
  /// Empty provider selects the all-providers sketch; unknown providers
  /// yield an empty sketch.
  [[nodiscard]] const stats::QuantileSketch& tdoh_sketch(
      std::string_view provider = {}) const;
  [[nodiscard]] const stats::QuantileSketch& tdohr_sketch(
      std::string_view provider = {}) const;
  /// Every Do53 row, Atlas included.
  [[nodiscard]] const stats::QuantileSketch& do53_sketch() const {
    return do53_all_;
  }

  // ---- Analysis filter and median map (fig5) --------------------------
  /// Dataset::analysis_countries over the merged client bitsets.
  [[nodiscard]] std::vector<std::string> analysis_countries() const;
  /// Sketch-median DoH1 per country for one provider.
  [[nodiscard]] std::map<std::string, double> country_doh1_medians(
      std::string_view provider) const;

  /// Exact per-(client, provider) medians; empty unless
  /// StreamSinkConfig::client_stats was set.
  [[nodiscard]] std::vector<ClientProviderStat> client_provider_stats()
      const;

  [[nodiscard]] const obs::StringTable& names() const { return names_; }

  /// Bit-identity comparison for the determinism tests: every aggregate,
  /// counter, and table must match.
  bool operator==(const StreamSink& other) const;

 private:
  [[nodiscard]] std::uint32_t provider_index(obs::StrId id) const;
  [[nodiscard]] const stats::QuantileSketch* provider_sketch(
      const std::vector<stats::QuantileSketch>& sketches,
      const stats::QuantileSketch& all, std::string_view provider) const;

  StreamSinkConfig cfg_;
  int runs_per_client_ = 0;
  std::uint32_t run_cap_ = 0;

  obs::StringTable names_;
  std::vector<obs::StrId> provider_ids_;
  std::vector<std::uint64_t> exit_ids_;
  std::vector<obs::StrId> exit_iso2_;
  std::vector<double> exit_ns_distance_;
  std::unordered_map<std::uint64_t, std::uint32_t> exit_index_;  // derived

  std::uint64_t sessions_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t doh_rows_ = 0;
  std::uint64_t do53_rows_ = 0;
  std::uint64_t atlas_rows_ = 0;

  stats::QuantileSketch tdoh_all_, tdohr_all_, do53_all_;
  std::vector<stats::QuantileSketch> tdoh_by_provider_;
  std::vector<stats::QuantileSketch> tdohr_by_provider_;
  std::map<std::pair<obs::StrId, std::uint32_t>, stats::QuantileSketch>
      country_doh1_;

  /// One bit per canonical exit index, per provider.
  std::vector<std::vector<std::uint8_t>> doh_client_bits_;

  /// Dense client-stat stores (allocated only when cfg_.client_stats):
  /// value index = (exit * P + provider) * run_cap_ + k.
  std::vector<double> cs_tdoh_, cs_tdohr_, cs_pop_dist_, cs_pot_imp_;
  /// Values held per (exit, provider) and per exit; wide enough for any
  /// run_cap_.
  std::vector<std::uint32_t> cs_doh_count_;  ///< per (exit, provider)
  std::vector<double> cs_do53_;              ///< exit * run_cap_ + k
  std::vector<std::uint32_t> cs_do53_count_;  ///< per exit
};

}  // namespace dohperf::measure
