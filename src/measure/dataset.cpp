#include "measure/dataset.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "stats/summary.h"

namespace dohperf::measure {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void Dataset::add_client(ClientInfo info) {
  clients_[info.exit_id] = std::move(info);
}

void Dataset::add_doh(DohRecord rec) {
  doh_.push_back(rec);
  ++epoch_;
}

void Dataset::add_do53(Do53Record rec) {
  do53_.push_back(rec);
  ++epoch_;
}

void Dataset::ensure_index() const {
  if (index_epoch_ == epoch_) return;

  doh_index_.clear();
  std::map<obs::StrId, std::unordered_set<std::uint64_t>> per_provider;
  std::map<std::pair<obs::StrId, obs::StrId>, std::unordered_set<std::uint64_t>>
      per_provider_country;
  for (const auto& r : doh_) {
    per_provider[r.provider].insert(r.exit_id);
    per_provider_country[{r.provider, r.iso2}].insert(r.exit_id);
  }
  for (const auto& [provider, ids] : per_provider) {
    doh_index_[provider].unique_clients = ids.size();
  }
  for (const auto& [key, ids] : per_provider_country) {
    doh_index_[key.first].clients_per_country[key.second] = ids.size();
  }

  std::unordered_set<std::uint64_t> do53_ids;
  std::unordered_set<obs::StrId> do53_countries;
  for (const auto& r : do53_) {
    if (r.exit_id != kAtlasExitId) do53_ids.insert(r.exit_id);
    do53_countries.insert(r.iso2);
  }
  do53_clients_ = do53_ids.size();
  do53_countries_ = do53_countries.size();

  index_epoch_ = epoch_;
}

std::size_t Dataset::unique_clients(std::string_view provider) const {
  const obs::StrId id = names_.find(provider);
  if (id == obs::kNoStrId) return 0;
  ensure_index();
  const auto it = doh_index_.find(id);
  return it == doh_index_.end() ? 0 : it->second.unique_clients;
}

std::size_t Dataset::unique_countries(std::string_view provider) const {
  const obs::StrId id = names_.find(provider);
  if (id == obs::kNoStrId) return 0;
  ensure_index();
  const auto it = doh_index_.find(id);
  return it == doh_index_.end() ? 0 : it->second.clients_per_country.size();
}

std::size_t Dataset::do53_clients() const {
  ensure_index();
  return do53_clients_;
}

std::size_t Dataset::do53_countries() const {
  ensure_index();
  return do53_countries_;
}

std::vector<std::string> Dataset::analysis_countries(int min_clients) const {
  ensure_index();
  std::set<obs::StrId> countries;
  for (const auto& [provider, index] : doh_index_) {
    for (const auto& [iso2, n] : index.clients_per_country) {
      countries.insert(iso2);
    }
  }
  std::vector<std::string> out;
  for (const obs::StrId iso2 : countries) {
    const bool ok = std::all_of(
        doh_index_.begin(), doh_index_.end(), [&](const auto& entry) {
          const auto& per_country = entry.second.clients_per_country;
          const auto it = per_country.find(iso2);
          return it != per_country.end() &&
                 it->second >= static_cast<std::size_t>(min_clients);
        });
    if (ok) out.emplace_back(names_.name(iso2));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, std::size_t> Dataset::clients_per_country() const {
  std::map<std::string, std::unordered_set<std::uint64_t>> sets;
  for (const auto& [id, info] : clients_) sets[info.iso2].insert(id);
  std::map<std::string, std::size_t> out;
  for (const auto& [iso2, ids] : sets) out[iso2] = ids.size();
  return out;
}

std::vector<double> Dataset::tdoh_values(std::string_view provider) const {
  const obs::StrId id = provider.empty() ? obs::kNoStrId : names_.find(provider);
  if (!provider.empty() && id == obs::kNoStrId) return {};
  std::vector<double> out;
  for (const auto& r : doh_) {
    if (provider.empty() || r.provider == id) out.push_back(r.tdoh_ms);
  }
  return out;
}

std::vector<double> Dataset::tdohr_values(std::string_view provider) const {
  const obs::StrId id = provider.empty() ? obs::kNoStrId : names_.find(provider);
  if (!provider.empty() && id == obs::kNoStrId) return {};
  std::vector<double> out;
  for (const auto& r : doh_) {
    if (provider.empty() || r.provider == id) out.push_back(r.tdohr_ms);
  }
  return out;
}

std::vector<double> Dataset::do53_values(std::string_view iso2) const {
  const obs::StrId id = iso2.empty() ? obs::kNoStrId : names_.find(iso2);
  if (!iso2.empty() && id == obs::kNoStrId) return {};
  std::vector<double> out;
  for (const auto& r : do53_) {
    if (iso2.empty() || r.iso2 == id) out.push_back(r.do53_ms);
  }
  return out;
}

std::vector<ClientProviderStat> Dataset::client_provider_stats() const {
  // Per-client Do53 medians (Atlas rows have no client attribution).
  std::unordered_map<std::uint64_t, std::vector<double>> do53_by_client;
  for (const auto& r : do53_) {
    if (r.exit_id != kAtlasExitId) do53_by_client[r.exit_id].push_back(r.do53_ms);
  }

  struct Acc {
    std::vector<double> tdoh, tdohr, pop_dist, pot_imp;
  };
  std::map<std::pair<std::uint64_t, obs::StrId>, Acc> acc;
  for (const auto& r : doh_) {
    Acc& a = acc[{r.exit_id, r.provider}];
    a.tdoh.push_back(r.tdoh_ms);
    a.tdohr.push_back(r.tdohr_ms);
    a.pop_dist.push_back(r.pop_distance_miles);
    a.pot_imp.push_back(r.potential_improvement_miles);
  }

  std::vector<ClientProviderStat> out;
  out.reserve(acc.size());
  for (auto& [key, a] : acc) {
    const auto& [exit_id, provider] = key;
    const auto client_it = clients_.find(exit_id);
    if (client_it == clients_.end()) continue;

    ClientProviderStat s;
    s.exit_id = exit_id;
    s.provider = std::string(names_.name(provider));
    s.iso2 = client_it->second.iso2;
    s.nameserver_distance_miles =
        client_it->second.nameserver_distance_miles;
    s.tdoh_ms = stats::median_inplace(a.tdoh);
    s.tdohr_ms = stats::median_inplace(a.tdohr);
    s.pop_distance_miles = stats::median_inplace(a.pop_dist);
    s.potential_improvement_miles = stats::median_inplace(a.pot_imp);

    const auto d_it = do53_by_client.find(exit_id);
    s.do53_ms = d_it == do53_by_client.end()
                    ? kNaN
                    : stats::median_inplace(d_it->second);
    out.push_back(std::move(s));
  }
  // Present in the historical (exit_id, provider-name) order the old
  // string-keyed map produced, not in interner-id order.
  std::stable_sort(out.begin(), out.end(),
                   [](const ClientProviderStat& a,
                      const ClientProviderStat& b) {
                     if (a.exit_id != b.exit_id) return a.exit_id < b.exit_id;
                     return a.provider < b.provider;
                   });
  return out;
}

std::map<std::string, double> Dataset::country_do53_medians() const {
  std::map<obs::StrId, std::vector<double>> values;
  for (const auto& r : do53_) values[r.iso2].push_back(r.do53_ms);
  std::map<std::string, double> out;
  for (auto& [iso2, v] : values) {
    out[std::string(names_.name(iso2))] = stats::median_inplace(v);
  }
  return out;
}

std::map<std::string, double> Dataset::country_doh_medians(
    std::string_view provider, int n) const {
  const obs::StrId id = provider.empty() ? obs::kNoStrId : names_.find(provider);
  if (!provider.empty() && id == obs::kNoStrId) return {};
  std::map<obs::StrId, std::vector<double>> values;
  for (const auto& r : doh_) {
    if (provider.empty() || r.provider == id) {
      values[r.iso2].push_back(r.doh_n(n));
    }
  }
  std::map<std::string, double> out;
  for (auto& [iso2, v] : values) {
    out[std::string(names_.name(iso2))] = stats::median_inplace(v);
  }
  return out;
}

}  // namespace dohperf::measure
