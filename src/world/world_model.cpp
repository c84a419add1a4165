#include "world/world_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dns/zone.h"
#include "geo/cities.h"

namespace dohperf::world {
namespace {

/// Synthetic anycast service addresses for the four providers' DoH VIPs,
/// pre-warmed into every ISP resolver cache so exit-node bootstrap
/// lookups (t3+t4) are cache hits, as they would be for cloudflare-dns.com
/// in the wild.
std::uint32_t provider_vip(std::size_t provider_index) {
  return 0x01010101u + static_cast<std::uint32_t>(provider_index) * 0x01010000u;
}

constexpr std::uint32_t kWebServerAddress = 0xCF000001;  // the a.com host

/// Instantiates a recursive resolver from its recorded build parameters.
resolver::RecursiveResolver resolver_from_spec(
    const ResolverSpec& spec, resolver::AuthoritativeServer* authority) {
  resolver::RecursiveResolver r(spec.name, spec.site, spec.address,
                                authority, spec.processing);
  r.set_ecs_policy(spec.ecs);
  return r;
}

}  // namespace

WorldModel::WorldModel(WorldConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  locate_hosts();
  build_providers();
  build_servers(stack_);

  for (const geo::Country& country : geo::world_table()) {
    if (!config_.only_countries.empty()) {
      const bool selected =
          std::find(config_.only_countries.begin(),
                    config_.only_countries.end(),
                    country.iso2) != config_.only_countries.end();
      if (!selected) continue;
    }
    build_country(country);
  }
}

void WorldModel::locate_hosts() {
  // Paper: the web server and BIND9 authoritative name server live in the
  // USA (we default to Ashburn, the densest US hosting metro). The city
  // is configurable because the paper flags varying the name-server
  // location as future work.
  const geo::City* host = geo::find_city(config_.authority_city);
  if (host == nullptr) {
    throw std::invalid_argument("unknown authority city: " +
                                config_.authority_city);
  }
  authority_site_.position = host->position;
  authority_site_.lastmile_ms = 0.5;
  authority_site_.route_inflation = 1.08;
  authority_site_.jitter_sigma = 0.04;
}

void WorldModel::build_providers() {
  if (config_.perfect_anycast) {
    // Ablation: keep catalogs and cost profiles but route optimally.
    std::vector<anycast::ProviderConfig> configs = {
        anycast::cloudflare_config(), anycast::google_config(),
        anycast::nextdns_config(), anycast::quad9_config()};
    for (auto& cfg : configs) {
      cfg.routing = anycast::RoutingParams{};  // p_nearest = 1
    }
    providers_.reserve(configs.size());
    providers_.emplace_back(configs[0], anycast::cloudflare_pops());
    providers_.emplace_back(configs[1], anycast::google_pops());
    providers_.emplace_back(configs[2], anycast::nextdns_pops());
    providers_.emplace_back(configs[3], anycast::quad9_pops());
  } else {
    providers_ = anycast::studied_providers();
  }
  doh_specs_.resize(providers_.size());

  bootstrap_names_.reserve(providers_.size());
  for (std::size_t p = 0; p < providers_.size(); ++p) {
    bootstrap_names_.emplace_back(
        dns::DomainName::parse(providers_[p].config().doh_hostname),
        provider_vip(p));
  }

  for (std::size_t p = 0; p < providers_.size(); ++p) {
    const anycast::Provider& provider = providers_[p];
    doh_specs_[p].reserve(provider.pops().size());
    for (std::size_t i = 0; i < provider.pops().size(); ++i) {
      // The PoP's long-haul legs ride its host country's transit,
      // moderated by the provider's own peering (backbone_factor).
      const geo::Country* host =
          geo::find_country(provider.pops()[i].country_iso2);
      const CountryNetProfile host_profile =
          profile_for(*host, config_.couple_infra);
      doh_specs_[p].push_back(DohServerSpec{
          provider.config().doh_hostname,
          provider.frontend_site(i, host_profile.route_inflation),
          ResolverSpec{
              provider.name() + "@" + provider.pops()[i].city,
              provider.backend_site(i, host_profile.route_inflation),
              next_address_++,
              netsim::from_ms(provider.config().processing_ms),
              provider.config().sends_ecs
                  ? resolver::EcsPolicy::kForwardSlash24
                  : resolver::EcsPolicy::kNever}});
    }
  }
}

void WorldModel::build_servers(SimContext& ctx) const {
  ctx.authority_ = std::make_unique<resolver::AuthoritativeServer>(
      dns::Zone::make_study_zone(kWebServerAddress),
      authority_site_);
  ctx.doh_.resize(doh_specs_.size());
  for (std::size_t p = 0; p < doh_specs_.size(); ++p) {
    ctx.doh_[p].reserve(doh_specs_[p].size());
    for (const DohServerSpec& spec : doh_specs_[p]) {
      ctx.doh_[p].push_back(std::make_unique<resolver::DohServer>(
          spec.hostname, spec.frontend, config_.tls_version,
          resolver_from_spec(spec.backend, ctx.authority_.get())));
    }
  }
}

resolver::RecursiveResolver& WorldModel::add_isp_resolver(
    SimContext& ctx, const ResolverSpec& spec) const {
  resolver::RecursiveResolver& r = ctx.resolvers_.emplace_back(
      resolver_from_spec(spec, ctx.authority_.get()));
  for (const auto& [host, vip] : bootstrap_names_) {
    dns::ResourceRecord a;
    a.name = host;
    a.ttl = 1000000000;  // never expires within a campaign
    a.rdata = dns::ARecord{vip};
    r.cache().insert(ctx.sim_.now(), host, dns::RecordType::kA, {a});
  }
  return r;
}

std::unique_ptr<SimContext> WorldModel::make_replica() const {
  auto ctx = std::unique_ptr<SimContext>(new SimContext(&resolver_index_));
  build_servers(*ctx);
  for (const ResolverSpec& spec : isp_specs_) add_isp_resolver(*ctx, spec);
  return ctx;
}

std::span<resolver::RecursiveResolver* const> WorldModel::isp_resolvers(
    const std::string& iso2) const {
  const auto it = isp_by_country_.find(iso2);
  if (it == isp_by_country_.end()) return {};
  return it->second;
}

void WorldModel::build_country(const geo::Country& country) {
  netsim::Rng country_rng = rng_.split(country.iso2);
  const std::string iso2(country.iso2);

  // --- ISP resolvers ------------------------------------------------
  const CountryNetProfile profile =
      profile_for(country, config_.couple_infra);
  const int n_resolvers = isp_resolver_count(country);
  std::vector<resolver::RecursiveResolver*> resolvers;
  for (int i = 0; i < n_resolvers; ++i) {
    double processing_ms =
        country_rng.lognormal_median(profile.resolver_processing_ms, 0.7);
    netsim::Site site =
        isp_resolver_site(country, country_rng, config_.couple_infra);
    // A sizeable minority of default resolvers are simply bad: overloaded
    // boxes behind congested transit. These are the clients for whom even
    // a first DoH query (handshake included) beats Do53 — the paper finds
    // 19.1% of clients in that situation, 84% of them in fast-broadband
    // countries, so the rate is gated by bandwidth.
    const double bad_rate =
        0.22 * std::min(1.0, country.bandwidth_mbps / 50.0) *
        std::min(1.0, country.bandwidth_mbps / 50.0);
    if (country_rng.bernoulli(bad_rate)) {
      processing_ms *= 6.0;
      site.route_inflation *= 2.5;
    }
    // ISP resolvers commonly forward ECS so CDNs can localise answers.
    // Their caches start with the provider DoH hostnames, among the
    // hottest names on the Internet, which never miss in practice.
    isp_specs_.push_back(ResolverSpec{
        iso2 + "-isp" + std::to_string(i), site, next_address_++,
        netsim::from_ms(processing_ms), resolver::EcsPolicy::kForwardSlash24});
    resolver::RecursiveResolver& r =
        add_isp_resolver(stack_, isp_specs_.back());
    resolver_index_.emplace(&r, isp_specs_.size() - 1);
    resolvers.push_back(&r);
  }

  isp_by_country_[iso2] = resolvers;
  country_codes_.push_back(iso2);

  // --- RIPE Atlas probes ---------------------------------------------
  // Volunteer probes concentrate where hobbyist infrastructure exists.
  const int n_probes =
      std::clamp(1 + country.num_ases / 40, 1, 12);
  if (country.num_ases >= 10) {
    for (int i = 0; i < n_probes; ++i) {
      proxy::AtlasProbe probe;
      probe.iso2 = iso2;
      probe.site = client_site(country, country_rng, config_.couple_infra);
      probe.default_resolver = resolvers[static_cast<std::size_t>(
          country_rng.uniform_int(0, n_resolvers - 1))];
      atlas_.register_probe(std::move(probe));
    }
  }

  // --- BrightData exit nodes ------------------------------------------
  const int pool = reachable_clients(country, country_rng);
  const int n_clients = static_cast<int>(
      std::lround(pool * std::max(0.0, config_.client_scale)));
  for (int i = 0; i < n_clients; ++i) {
    proxy::ExitNode node;
    node.advertised_iso2 = iso2;
    node.prefix = next_prefix_++;

    const bool mislabeled = country_rng.bernoulli(config_.mislabel_rate) &&
                            country_codes_.size() > 1;
    if (mislabeled) {
      // BrightData's IP->country database is wrong for this node: it
      // actually sits in a different (already-built) country.
      const auto& other_iso = country_codes_[static_cast<std::size_t>(
          country_rng.uniform_int(
              0, static_cast<std::int64_t>(country_codes_.size()) - 2))];
      const geo::Country* other = geo::find_country(other_iso);
      node.true_iso2 = other_iso;
      node.anycast_region = other->region;
      node.site = client_site(*other, country_rng, config_.couple_infra);
      const auto other_resolvers = isp_resolvers(other_iso);
      node.default_resolver = other_resolvers[static_cast<std::size_t>(
          country_rng.uniform_int(
              0, static_cast<std::int64_t>(other_resolvers.size()) - 1))];
    } else {
      node.true_iso2 = iso2;
      node.anycast_region = country.region;
      node.site = client_site(country, country_rng, config_.couple_infra);
      const double remote_rate =
          config_.remote_dns_rate *
          (0.4 + 0.6 * std::min(1.0, country.bandwidth_mbps / 40.0));
      std::deque<resolver::RecursiveResolver>& all = stack_.resolvers_;
      if (country_rng.bernoulli(remote_rate) &&
          all.size() > static_cast<std::size_t>(n_resolvers)) {
        // DNS backhauled to a resolver somewhere else entirely.
        node.default_resolver = &all[static_cast<std::size_t>(
            country_rng.uniform_int(
                0, static_cast<std::int64_t>(all.size()) - 1))];
      } else {
        node.default_resolver = resolvers[static_cast<std::size_t>(
            country_rng.uniform_int(0, n_resolvers - 1))];
      }
    }

    // The Maxmind-like database knows the true country (it is keyed by
    // the /24 the web server observes) but places the client with
    // /24-granularity scatter — the paper's distance analyses inherit
    // exactly this noise.
    const double geo_err_km =
        std::min(country_rng.exponential(35.0), 150.0);
    const geo::LatLon located = geo::destination(
        node.site.position, country_rng.uniform(0.0, 360.0), geo_err_km);
    maxmind_.add(node.prefix, geo::GeoRecord{node.true_iso2, located});
    brightdata_.enroll(std::move(node));
  }
}

}  // namespace dohperf::world
