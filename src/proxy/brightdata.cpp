#include "proxy/brightdata.h"

#include <algorithm>
#include <stdexcept>

#include "geo/cities.h"

namespace dohperf::proxy {
namespace {

/// Host metro for each Super Proxy country.
constexpr std::array<std::pair<std::string_view, std::string_view>, 11>
    kSuperProxyCities{{
        {"US", "Ashburn"},
        {"CA", "Toronto"},
        {"GB", "London"},
        {"IN", "Mumbai"},
        {"JP", "Tokyo"},
        {"KR", "Seoul"},
        {"SG", "Singapore"},
        {"DE", "Frankfurt"},
        {"NL", "Amsterdam"},
        {"FR", "Paris"},
        {"AU", "Sydney"},
    }};

}  // namespace

bool resolves_dns_at_super_proxy(std::string_view iso2) {
  return std::find(kSuperProxyCountries.begin(), kSuperProxyCountries.end(),
                   iso2) != kSuperProxyCountries.end();
}

BrightDataNetwork::BrightDataNetwork() {
  locations_.reserve(kSuperProxyCities.size());
  pops_.reserve(kSuperProxyCities.size());
  for (const auto& [iso2, city_name] : kSuperProxyCities) {
    const geo::City* city = geo::find_city(city_name);
    if (city == nullptr) {
      throw std::logic_error("missing super-proxy city " +
                             std::string(city_name));
    }
    SuperProxyLocation loc;
    loc.iso2 = std::string(iso2);
    loc.site.position = city->position;
    loc.site.lastmile_ms = 0.5;      // datacenter-hosted
    loc.site.route_inflation = 1.1;  // well-peered
    loc.site.jitter_sigma = 0.05;
    locations_.push_back(std::move(loc));
    pops_.push_back(anycast::make_pop(*city));
  }
}

std::uint64_t BrightDataNetwork::enroll(ExitNode node) {
  node.id = exits_.size();
  by_country_[node.advertised_iso2].push_back(node.id);
  exits_.push_back(std::move(node));
  return exits_.back().id;
}

const ExitNode* BrightDataNetwork::pick_exit(std::string_view iso2,
                                             netsim::Rng& rng) const {
  const auto it = by_country_.find(std::string(iso2));
  if (it == by_country_.end() || it->second.empty()) return nullptr;
  const auto idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(it->second.size()) - 1));
  return &exits_[it->second[idx]];
}

const ExitNode* BrightDataNetwork::find(std::uint64_t id) const {
  if (id >= exits_.size()) return nullptr;
  return &exits_[id];
}

std::span<const std::uint64_t> BrightDataNetwork::exits_in(
    std::string_view iso2) const {
  const auto it = by_country_.find(std::string(iso2));
  if (it == by_country_.end()) return {};
  return it->second;
}

const SuperProxyLocation& BrightDataNetwork::nearest_super_proxy(
    const geo::LatLon& p) const {
  return locations_[anycast::nearest_pop(pops_, p).index];
}

BrightDataNetwork::OverheadSample BrightDataNetwork::sample_overheads(
    netsim::Rng& rng) {
  OverheadSample s;
  s.auth_ms = rng.lognormal_median(3.0, 0.30);
  s.init_ms = rng.lognormal_median(2.0, 0.30);
  s.select_ms = rng.lognormal_median(6.0, 0.40);
  s.vld_ms = rng.lognormal_median(1.5, 0.30);
  return s;
}

}  // namespace dohperf::proxy
