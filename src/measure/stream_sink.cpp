#include "measure/stream_sink.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>

#include "stats/summary.h"

namespace dohperf::measure {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void set_bit(std::vector<std::uint8_t>& bits, std::uint32_t i) {
  bits[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7u));
}

bool test_bit(const std::vector<std::uint8_t>& bits, std::uint32_t i) {
  return (bits[i >> 3] >> (i & 7u)) & 1u;
}

const stats::QuantileSketch& empty_sketch() {
  static const stats::QuantileSketch sketch;
  return sketch;
}

}  // namespace

StreamSink::StreamSink(StreamSinkConfig cfg, int runs_per_client,
                       std::vector<std::uint64_t> exit_ids,
                       std::vector<obs::StrId> exit_iso2,
                       std::vector<double> exit_ns_distance,
                       std::vector<obs::StrId> provider_ids, obs::StringTable names)
    : cfg_(cfg),
      runs_per_client_(runs_per_client),
      run_cap_(static_cast<std::uint32_t>(std::max(
          1, std::min(cfg.run_capacity, std::max(1, runs_per_client))))),
      names_(std::move(names)),
      provider_ids_(std::move(provider_ids)),
      exit_ids_(std::move(exit_ids)),
      exit_iso2_(std::move(exit_iso2)),
      exit_ns_distance_(std::move(exit_ns_distance)) {
  const std::size_t n_exits = exit_ids_.size();
  const std::size_t n_providers = provider_ids_.size();
  exit_index_.reserve(n_exits);
  for (std::uint32_t e = 0; e < n_exits; ++e) {
    exit_index_.emplace(exit_ids_[e], e);
  }
  tdoh_by_provider_.resize(n_providers);
  tdohr_by_provider_.resize(n_providers);
  doh_client_bits_.assign(n_providers,
                          std::vector<std::uint8_t>((n_exits + 7) / 8, 0));
  if (cfg_.client_stats) {
    const std::size_t cells =
        n_exits * n_providers * static_cast<std::size_t>(run_cap_);
    cs_tdoh_.assign(cells, 0.0);
    cs_tdohr_.assign(cells, 0.0);
    cs_pop_dist_.assign(cells, 0.0);
    cs_pot_imp_.assign(cells, 0.0);
    cs_doh_count_.assign(n_exits * n_providers, 0);
    cs_do53_.assign(n_exits * static_cast<std::size_t>(run_cap_), 0.0);
    cs_do53_count_.assign(n_exits, 0);
  }
}

std::uint32_t StreamSink::provider_index(obs::StrId id) const {
  for (std::uint32_t p = 0; p < provider_ids_.size(); ++p) {
    if (provider_ids_[p] == id) return p;
  }
  assert(false && "row references a provider outside the catalog");
  return 0;
}

void StreamSink::fold(std::span<const DohRecord> doh,
                      std::span<const Do53Record> do53,
                      std::uint64_t failed) {
  ++sessions_;
  failed_ += failed;

  for (const DohRecord& r : doh) {
    const std::uint32_t p = provider_index(r.provider);
    ++doh_rows_;
    tdoh_all_.record(r.tdoh_ms);
    tdohr_all_.record(r.tdohr_ms);
    tdoh_by_provider_[p].record(r.tdoh_ms);
    tdohr_by_provider_[p].record(r.tdohr_ms);
    country_doh1_[{r.iso2, p}].record(r.tdoh_ms);

    const std::uint32_t e = exit_index_.at(r.exit_id);
    set_bit(doh_client_bits_[p], e);
    if (cfg_.client_stats) {
      const std::size_t slot = static_cast<std::size_t>(e) *
                                   provider_ids_.size() +
                               p;
      std::uint32_t& count = cs_doh_count_[slot];
      if (count < run_cap_) {
        const std::size_t at =
            slot * static_cast<std::size_t>(run_cap_) + count;
        cs_tdoh_[at] = r.tdoh_ms;
        cs_tdohr_[at] = r.tdohr_ms;
        cs_pop_dist_[at] = r.pop_distance_miles;
        cs_pot_imp_[at] = r.potential_improvement_miles;
        ++count;
      }
    }
  }

  for (const Do53Record& r : do53) {
    do53_all_.record(r.do53_ms);
    if (r.exit_id == kAtlasExitId) {
      ++atlas_rows_;
      continue;
    }
    ++do53_rows_;
    if (cfg_.client_stats) {
      const std::uint32_t e = exit_index_.at(r.exit_id);
      std::uint32_t& count = cs_do53_count_[e];
      if (count < run_cap_) {
        cs_do53_[static_cast<std::size_t>(e) *
                     static_cast<std::size_t>(run_cap_) +
                 count] = r.do53_ms;
        ++count;
      }
    }
  }
}

void StreamSink::merge(const StreamSink& other) {
  assert(exit_ids_.size() == other.exit_ids_.size());
  assert(provider_ids_ == other.provider_ids_);

  sessions_ += other.sessions_;
  failed_ += other.failed_;
  doh_rows_ += other.doh_rows_;
  do53_rows_ += other.do53_rows_;
  atlas_rows_ += other.atlas_rows_;
  discarded_mismatch += other.discarded_mismatch;

  tdoh_all_.merge(other.tdoh_all_);
  tdohr_all_.merge(other.tdohr_all_);
  do53_all_.merge(other.do53_all_);
  for (std::size_t p = 0; p < tdoh_by_provider_.size(); ++p) {
    tdoh_by_provider_[p].merge(other.tdoh_by_provider_[p]);
    tdohr_by_provider_[p].merge(other.tdohr_by_provider_[p]);
  }
  for (const auto& [key, sketch] : other.country_doh1_) {
    country_doh1_[key].merge(sketch);
  }

  for (std::size_t p = 0; p < doh_client_bits_.size(); ++p) {
    for (std::size_t i = 0; i < doh_client_bits_[p].size(); ++i) {
      doh_client_bits_[p][i] |= other.doh_client_bits_[p][i];
    }
  }

  if (cfg_.client_stats && other.cfg_.client_stats) {
    // Shards own disjoint exits, so per-(exit, provider) stores never
    // collide; append defensively anyway.
    for (std::size_t slot = 0; slot < cs_doh_count_.size(); ++slot) {
      for (std::uint32_t k = 0; k < other.cs_doh_count_[slot]; ++k) {
        if (cs_doh_count_[slot] >= run_cap_) break;
        const std::size_t to =
            slot * static_cast<std::size_t>(run_cap_) + cs_doh_count_[slot];
        const std::size_t from =
            slot * static_cast<std::size_t>(run_cap_) + k;
        cs_tdoh_[to] = other.cs_tdoh_[from];
        cs_tdohr_[to] = other.cs_tdohr_[from];
        cs_pop_dist_[to] = other.cs_pop_dist_[from];
        cs_pot_imp_[to] = other.cs_pot_imp_[from];
        ++cs_doh_count_[slot];
      }
    }
    for (std::size_t e = 0; e < cs_do53_count_.size(); ++e) {
      for (std::uint32_t k = 0; k < other.cs_do53_count_[e]; ++k) {
        if (cs_do53_count_[e] >= run_cap_) break;
        cs_do53_[e * static_cast<std::size_t>(run_cap_) +
                 cs_do53_count_[e]] =
            other.cs_do53_[e * static_cast<std::size_t>(run_cap_) + k];
        ++cs_do53_count_[e];
      }
    }
  }
}

const stats::QuantileSketch* StreamSink::provider_sketch(
    const std::vector<stats::QuantileSketch>& sketches,
    const stats::QuantileSketch& all, std::string_view provider) const {
  if (provider.empty()) return &all;
  const obs::StrId id = names_.find(provider);
  if (id == obs::kNoStrId) return nullptr;
  for (std::size_t p = 0; p < provider_ids_.size(); ++p) {
    if (provider_ids_[p] == id) return &sketches[p];
  }
  return nullptr;
}

const stats::QuantileSketch& StreamSink::tdoh_sketch(
    std::string_view provider) const {
  const auto* s = provider_sketch(tdoh_by_provider_, tdoh_all_, provider);
  return s != nullptr ? *s : empty_sketch();
}

const stats::QuantileSketch& StreamSink::tdohr_sketch(
    std::string_view provider) const {
  const auto* s = provider_sketch(tdohr_by_provider_, tdohr_all_, provider);
  return s != nullptr ? *s : empty_sketch();
}

std::vector<std::string> StreamSink::analysis_countries() const {
  // Unique clients per (country, provider) from the merged bitsets.
  std::map<std::pair<obs::StrId, std::uint32_t>, std::size_t> counts;
  std::vector<bool> provider_seen(provider_ids_.size(), false);
  for (std::uint32_t p = 0; p < doh_client_bits_.size(); ++p) {
    for (std::uint32_t e = 0; e < exit_ids_.size(); ++e) {
      if (!test_bit(doh_client_bits_[p], e)) continue;
      ++counts[{exit_iso2_[e], p}];
      provider_seen[p] = true;
    }
  }
  std::set<obs::StrId> countries;
  for (const auto& [key, n] : counts) countries.insert(key.first);

  std::vector<std::string> out;
  for (const obs::StrId iso2 : countries) {
    bool ok = true;
    for (std::uint32_t p = 0; p < provider_ids_.size(); ++p) {
      if (!provider_seen[p]) continue;
      const auto it = counts.find({iso2, p});
      if (it == counts.end() || it->second < kMinAnalysisClients) {
        ok = false;
        break;
      }
    }
    if (ok) out.emplace_back(names_.name(iso2));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, double> StreamSink::country_doh1_medians(
    std::string_view provider) const {
  std::map<std::string, double> out;
  const obs::StrId id = names_.find(provider);
  if (id == obs::kNoStrId) return out;
  for (const auto& [key, sketch] : country_doh1_) {
    if (provider_ids_[key.second] != id) continue;
    out[std::string(names_.name(key.first))] = sketch.quantile(0.5);
  }
  return out;
}

std::vector<ClientProviderStat> StreamSink::client_provider_stats() const {
  std::vector<ClientProviderStat> out;
  if (!cfg_.client_stats) return out;
  const std::size_t n_providers = provider_ids_.size();
  std::vector<double> scratch;
  const auto median_of = [&](const std::vector<double>& store,
                             std::size_t slot, std::uint32_t count) {
    scratch.assign(store.begin() + static_cast<std::ptrdiff_t>(
                                       slot * run_cap_),
                   store.begin() + static_cast<std::ptrdiff_t>(
                                       slot * run_cap_ + count));
    return stats::median_inplace(scratch);
  };
  for (std::uint32_t e = 0; e < exit_ids_.size(); ++e) {
    for (std::uint32_t p = 0; p < n_providers; ++p) {
      const std::size_t slot =
          static_cast<std::size_t>(e) * n_providers + p;
      const std::uint32_t count = cs_doh_count_[slot];
      if (count == 0) continue;
      ClientProviderStat s;
      s.exit_id = exit_ids_[e];
      s.iso2 = std::string(names_.name(exit_iso2_[e]));
      s.provider = std::string(names_.name(provider_ids_[p]));
      s.nameserver_distance_miles = exit_ns_distance_[e];
      s.tdoh_ms = median_of(cs_tdoh_, slot, count);
      s.tdohr_ms = median_of(cs_tdohr_, slot, count);
      s.pop_distance_miles = median_of(cs_pop_dist_, slot, count);
      s.potential_improvement_miles = median_of(cs_pot_imp_, slot, count);
      const std::uint32_t d_count = cs_do53_count_[e];
      s.do53_ms = d_count == 0 ? kNaN
                               : median_of(cs_do53_, e, d_count);
      out.push_back(std::move(s));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ClientProviderStat& a,
                      const ClientProviderStat& b) {
                     if (a.exit_id != b.exit_id) return a.exit_id < b.exit_id;
                     return a.provider < b.provider;
                   });
  return out;
}

bool StreamSink::operator==(const StreamSink& other) const {
  return sessions_ == other.sessions_ && failed_ == other.failed_ &&
         doh_rows_ == other.doh_rows_ && do53_rows_ == other.do53_rows_ &&
         atlas_rows_ == other.atlas_rows_ &&
         discarded_mismatch == other.discarded_mismatch &&
         names_ == other.names_ && provider_ids_ == other.provider_ids_ &&
         exit_ids_ == other.exit_ids_ && exit_iso2_ == other.exit_iso2_ &&
         exit_ns_distance_ == other.exit_ns_distance_ &&
         tdoh_all_ == other.tdoh_all_ && tdohr_all_ == other.tdohr_all_ &&
         do53_all_ == other.do53_all_ &&
         tdoh_by_provider_ == other.tdoh_by_provider_ &&
         tdohr_by_provider_ == other.tdohr_by_provider_ &&
         country_doh1_ == other.country_doh1_ &&
         doh_client_bits_ == other.doh_client_bits_ &&
         cs_tdoh_ == other.cs_tdoh_ && cs_tdohr_ == other.cs_tdohr_ &&
         cs_pop_dist_ == other.cs_pop_dist_ &&
         cs_pot_imp_ == other.cs_pot_imp_ &&
         cs_doh_count_ == other.cs_doh_count_ &&
         cs_do53_ == other.cs_do53_ &&
         cs_do53_count_ == other.cs_do53_count_;
}

}  // namespace dohperf::measure
