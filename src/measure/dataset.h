// The campaign's collected measurements and aggregation helpers.
//
// Rows are PODs: country and provider names are interned into StrId
// integers via the Dataset's StringTable (see obs/string_table.h), which
// cuts a DohRecord from ~120 heap-fragmented bytes to 56 flat bytes and
// makes row vectors memcpy-friendly. Aggregations keep their string
// interface — callers pass/receive names; the Dataset translates.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geo/coordinates.h"
#include "measure/estimator.h"
#include "obs/string_table.h"

namespace dohperf::measure {

/// One measured client (exit node) retained after the Maxmind check.
struct ClientInfo {
  std::uint64_t exit_id = 0;
  std::string iso2;  ///< Analysis country.
  geo::LatLon position;
  double nameserver_distance_miles = 0.0;  ///< Client -> authoritative NS.
};

/// One DoH measurement (one provider, one run). POD row; iso2/provider
/// are StringTable ids resolved via Dataset::name().
struct DohRecord {
  std::uint64_t exit_id = 0;
  obs::StrId iso2 = obs::kNoStrId;
  obs::StrId provider = obs::kNoStrId;
  std::int32_t run = 0;
  std::uint32_t pop_index = 0;
  double pop_distance_miles = 0.0;  ///< Client -> PoP actually used.
  double potential_improvement_miles = 0.0;  ///< vs nearest PoP (Figure 6).
  double tdoh_ms = 0.0;   ///< Equation 7 estimate (DoH1).
  double tdohr_ms = 0.0;  ///< Equation 8 estimate (DoHR).

  /// DoHN per-request average for this record.
  [[nodiscard]] double doh_n(int n) const {
    return doh_n_ms(tdoh_ms, tdohr_ms, n);
  }
};
static_assert(std::is_trivially_copyable_v<DohRecord>);

/// One Do53 measurement. POD row.
struct Do53Record {
  std::uint64_t exit_id = 0;  ///< kAtlasExitId for RIPE Atlas rows.
  obs::StrId iso2 = obs::kNoStrId;
  std::int32_t run = 0;
  bool via_atlas = false;
  double do53_ms = 0.0;
};
static_assert(std::is_trivially_copyable_v<Do53Record>);

inline constexpr std::uint64_t kAtlasExitId =
    std::numeric_limits<std::uint64_t>::max();

/// Per-(client, provider) aggregate: medians across runs, joined with the
/// client's Do53 median. The unit of analysis for Tables 4-6.
struct ClientProviderStat {
  std::uint64_t exit_id = 0;
  std::string iso2;
  std::string provider;
  double tdoh_ms = 0.0;
  double tdohr_ms = 0.0;
  double do53_ms = 0.0;  ///< NaN when no per-client Do53 exists (the 11
                         ///< Super Proxy countries).
  double pop_distance_miles = 0.0;
  double potential_improvement_miles = 0.0;
  double nameserver_distance_miles = 0.0;

  [[nodiscard]] double doh_n(int n) const {
    return doh_n_ms(tdoh_ms, tdohr_ms, n);
  }
  [[nodiscard]] bool has_do53() const { return do53_ms == do53_ms; }
};

/// The full campaign output.
class Dataset {
 public:
  void add_client(ClientInfo info);
  void add_doh(DohRecord rec);
  void add_do53(Do53Record rec);

  /// Interns a name for use in a row about to be added.
  obs::StrId intern(std::string_view s) { return names_.intern(s); }
  /// The name behind a row's id (empty for obs::kNoStrId).
  [[nodiscard]] std::string_view name(obs::StrId id) const {
    return names_.name(id);
  }
  [[nodiscard]] const obs::StringTable& names() const { return names_; }
  [[nodiscard]] obs::StringTable& names() { return names_; }

  [[nodiscard]] std::span<const DohRecord> doh() const { return doh_; }
  [[nodiscard]] std::span<const Do53Record> do53() const { return do53_; }
  [[nodiscard]] const std::map<std::uint64_t, ClientInfo>& clients() const {
    return clients_;
  }

  /// Campaign bookkeeping.
  std::uint64_t discarded_mismatch = 0;  ///< Maxmind-vs-BrightData (0.88%).
  std::uint64_t failed_measurements = 0;

  // ---- Aggregations ---------------------------------------------------
  // Per-provider unique-client/country queries hit an index built once
  // per mutation epoch (add_doh/add_do53 invalidate it) instead of
  // rescanning every row per query.

  /// Unique client count per provider (Table 3 rows).
  [[nodiscard]] std::size_t unique_clients(std::string_view provider) const;
  /// Country count per provider (Table 3 rows).
  [[nodiscard]] std::size_t unique_countries(
      std::string_view provider) const;
  /// Unique clients / countries with Do53 data.
  [[nodiscard]] std::size_t do53_clients() const;
  [[nodiscard]] std::size_t do53_countries() const;

  /// Countries with at least `min_clients` unique clients measured for
  /// EVERY studied provider (the paper's per-country analysis filter).
  [[nodiscard]] std::vector<std::string> analysis_countries(
      int min_clients = 10) const;

  /// Clients measured per country (for Figure 3).
  [[nodiscard]] std::map<std::string, std::size_t> clients_per_country()
      const;

  /// All DoH1 / DoHR values for a provider (Figure 4 CDFs); empty
  /// provider matches all.
  [[nodiscard]] std::vector<double> tdoh_values(
      std::string_view provider = {}) const;
  [[nodiscard]] std::vector<double> tdohr_values(
      std::string_view provider = {}) const;
  /// All Do53 values (optionally restricted to one country).
  [[nodiscard]] std::vector<double> do53_values(
      std::string_view iso2 = {}) const;

  /// Per-(client, provider) medians joined with per-client Do53 medians.
  [[nodiscard]] std::vector<ClientProviderStat> client_provider_stats()
      const;

  /// Median Do53 per country (Atlas rows included).
  [[nodiscard]] std::map<std::string, double> country_do53_medians() const;
  /// Median DoH1 (or DoHN) per country per provider.
  [[nodiscard]] std::map<std::string, double> country_doh_medians(
      std::string_view provider, int n = 1) const;

 private:
  /// Per-provider unique-client statistics, rebuilt lazily per epoch.
  struct ProviderIndex {
    std::size_t unique_clients = 0;
    /// Unique clients per country (key: iso2 id).
    std::map<obs::StrId, std::size_t> clients_per_country;
  };

  void ensure_index() const;

  std::map<std::uint64_t, ClientInfo> clients_;
  std::vector<DohRecord> doh_;
  std::vector<Do53Record> do53_;
  obs::StringTable names_;

  std::uint64_t epoch_ = 1;               ///< Bumped on row mutation.
  mutable std::uint64_t index_epoch_ = 0;  ///< Epoch the index reflects.
  mutable std::map<obs::StrId, ProviderIndex> doh_index_;
  mutable std::size_t do53_clients_ = 0;
  mutable std::size_t do53_countries_ = 0;
};

}  // namespace dohperf::measure
