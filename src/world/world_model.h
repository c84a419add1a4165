// Assembles the full simulated ecosystem the campaign measures: the
// authoritative server and web server for "a.com", per-country ISP
// resolvers and client pools, the four DoH providers with their PoP
// resolver fleets, the BrightData-like proxy overlay, the RIPE Atlas-like
// probe network, and the Maxmind-like geolocation database.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anycast/provider.h"
#include "dns/name.h"
#include "geo/geolocation.h"
#include "netsim/netctx.h"
#include "proxy/brightdata.h"
#include "proxy/ripe_atlas.h"
#include "resolver/authoritative.h"
#include "resolver/doh_server.h"
#include "transport/tls.h"
#include "world/sites.h"

namespace dohperf::world {

/// Recorded constructor parameters for one recursive resolver, captured at
/// world build time so per-shard replicas can be instantiated later
/// without consuming any build randomness.
struct ResolverSpec {
  std::string name;
  netsim::Site site;
  std::uint32_t address = 0;
  netsim::Duration processing{};
  resolver::EcsPolicy ecs = resolver::EcsPolicy::kNever;
};

/// Recorded constructor parameters for one DoH front-end + backend pair.
struct DohServerSpec {
  std::string hostname;
  netsim::Site frontend;
  ResolverSpec backend;
};

/// The mutable half of the world: a private clock + event queue and every
/// server whose internal state evolves while flows run (the authoritative
/// server, the DoH fleets, and the ISP resolvers with their caches). The
/// world owns one, on which its one-off flows run; every campaign shard
/// and the anomaly replay run on a fresh one from make_replica(). The
/// immutable world — geo tables, PoP catalogs, provider configs, the
/// exit-node population, the geolocation database — stays inside
/// WorldModel and is shared read-only across any number of
/// concurrently-running SimContexts.
class SimContext {
 public:
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  [[nodiscard]] netsim::Simulator& sim() { return sim_; }
  [[nodiscard]] resolver::AuthoritativeServer& authority() {
    return *authority_;
  }
  [[nodiscard]] resolver::DohServer& doh_server(std::size_t provider_index,
                                                std::size_t pop_index) {
    return *doh_.at(provider_index).at(pop_index);
  }
  /// This context's copy of one of the world's ISP resolvers (exit nodes
  /// and Atlas probes point at the world's own; a replica's measurements
  /// must run against its copies).
  [[nodiscard]] resolver::RecursiveResolver* local(
      const resolver::RecursiveResolver* world_resolver) {
    return &resolvers_[world_index_->at(world_resolver)];
  }

 private:
  friend class WorldModel;
  /// World resolver -> its position in every context's `resolvers_`.
  using ResolverIndex =
      std::unordered_map<const resolver::RecursiveResolver*, std::size_t>;
  explicit SimContext(const ResolverIndex* world_index)
      : world_index_(world_index) {}

  netsim::Simulator sim_;
  std::unique_ptr<resolver::AuthoritativeServer> authority_;
  std::vector<std::vector<std::unique_ptr<resolver::DohServer>>> doh_;
  std::deque<resolver::RecursiveResolver> resolvers_;
  /// Owned by the world, which outlives every context it builds.
  const ResolverIndex* world_index_;
};

/// World construction parameters.
struct WorldConfig {
  std::uint64_t seed = 42;
  /// Scales per-country client-pool sizes (use < 1 for fast tests).
  double client_scale = 1.0;
  /// Restrict the world to these ISO codes (empty = whole world table).
  std::vector<std::string> only_countries;
  /// Couple network parameters to country covariates (ablation switch).
  bool couple_infra = true;
  /// TLS version of every DoH front-end, so of every DoH and DoT
  /// handshake (paper headline: 1.3).
  transport::TlsVersion tls_version = transport::TlsVersion::kTls13;
  /// Ablation: route every client to its geographically nearest PoP,
  /// overriding the calibrated anycast-inefficiency mixtures.
  bool perfect_anycast = false;
  /// Metro hosting the study's web + authoritative servers. The paper
  /// used a single US location and flags varying it as future work
  /// (Section 7); any city from geo::city_table() works here.
  std::string authority_city = "Ashburn";
  /// Probability that BrightData's country label for a node is wrong
  /// (paper discards 0.88% of data points on Maxmind mismatch).
  double mislabel_rate = 0.0088;
  /// Probability that a client's default resolver is hosted far away
  /// (ISPs backhauling DNS abroad, satellite operators, misconfigured
  /// CPE). These clients are the bulk of the paper's 19.1% for whom even
  /// a first DoH query beats Do53.
  double remote_dns_rate = 0.18;
};

/// The assembled world. Not copyable or movable: internal components hold
/// pointers to each other.
class WorldModel {
 public:
  explicit WorldModel(WorldConfig config = {});
  WorldModel(const WorldModel&) = delete;
  WorldModel& operator=(const WorldModel&) = delete;

  /// Runs one flow to completion on this world's own SimContext,
  /// drawing from `rng` (the world's own by default), and
  /// returns its result (rethrowing what it threw). `launch(net)` gets a
  /// fresh context, may attach spans, metrics or a ledger to it, and
  /// returns the started Task. The simulator then runs until no events
  /// are left, and only then does the Task die: this is where one-off
  /// flows keep netsim::Task's lifetime contract.
  template <typename Launch>
  auto run_flow(Launch&& launch) {
    return run_flow(std::forward<Launch>(launch), rng_);
  }
  template <typename Launch>
  auto run_flow(Launch&& launch, netsim::Rng& rng) {
    netsim::NetCtx net{stack_.sim(), rng};
    auto task = std::forward<Launch>(launch)(net);
    stack_.sim().run();
    if (!task.done()) {
      throw std::logic_error("run_flow: the flow outlived its events");
    }
    return task.await_resume();
  }

  [[nodiscard]] netsim::Simulator& sim() { return stack_.sim(); }
  [[nodiscard]] netsim::Rng& rng() { return rng_; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  [[nodiscard]] resolver::AuthoritativeServer& authority() {
    return stack_.authority();
  }
  [[nodiscard]] std::span<anycast::Provider> providers() {
    return providers_;
  }
  /// DoH front-end serving PoP `pop_index` of provider `provider_index`.
  [[nodiscard]] resolver::DohServer& doh_server(std::size_t provider_index,
                                                std::size_t pop_index) {
    return stack_.doh_server(provider_index, pop_index);
  }

  [[nodiscard]] proxy::BrightDataNetwork& brightdata() {
    return brightdata_;
  }
  [[nodiscard]] proxy::RipeAtlas& atlas() { return atlas_; }
  [[nodiscard]] geo::GeolocationService& maxmind() { return maxmind_; }

  /// ISO codes of countries instantiated in this world.
  [[nodiscard]] std::span<const std::string> countries() const {
    return country_codes_;
  }
  /// ISP resolvers of `iso2` (empty span if country absent).
  [[nodiscard]] std::span<resolver::RecursiveResolver* const>
  isp_resolvers(const std::string& iso2) const;

  /// Total enrolled exit nodes.
  [[nodiscard]] std::size_t exit_count() const {
    return brightdata_.exit_count();
  }

  /// Builds a fresh simulation context whose servers replicate this
  /// world's as built — same sites, addresses, processing delays, zone
  /// data, and pre-warmed caches — but whose mutable state (clock, event
  /// queue, caches, counters) is private. Thread-safe: only reads the
  /// recorded build specs.
  [[nodiscard]] std::unique_ptr<SimContext> make_replica() const;

 private:
  void locate_hosts();
  void build_providers();
  void build_country(const geo::Country& country);
  /// Builds `ctx`'s authority and DoH fleets from the recorded specs,
  /// every DoH front-end at the world's TLS version. With
  /// add_isp_resolver(), the one place servers are built, for the world's
  /// own context and every replica alike.
  void build_servers(SimContext& ctx) const;
  /// Adds the ISP resolver `spec` records to `ctx`, with the
  /// never-expiring provider-hostname A records (the ultra-hot bootstrap
  /// names) in its cache.
  resolver::RecursiveResolver& add_isp_resolver(SimContext& ctx,
                                                const ResolverSpec& spec) const;

  WorldConfig config_;
  netsim::Rng rng_;

  netsim::Site authority_site_;

  std::vector<anycast::Provider> providers_;
  /// Recorded build parameters of every server: doh_specs_[provider][pop],
  /// and the ISP resolvers in build order.
  std::vector<std::vector<DohServerSpec>> doh_specs_;
  std::vector<ResolverSpec> isp_specs_;
  /// (hostname, anycast VIP) pairs pre-warmed into every ISP resolver.
  std::vector<std::pair<dns::DomainName, std::uint32_t>> bootstrap_names_;
  SimContext::ResolverIndex resolver_index_;
  /// The world's own servers; exit nodes and probes point into them.
  SimContext stack_{&resolver_index_};

  std::unordered_map<std::string, std::vector<resolver::RecursiveResolver*>>
      isp_by_country_;
  std::vector<std::string> country_codes_;

  proxy::BrightDataNetwork brightdata_;
  proxy::RipeAtlas atlas_;
  geo::GeolocationService maxmind_;

  std::uint32_t next_address_ = 1000;
  geo::NetPrefix next_prefix_ = 0x0A000000;
};

}  // namespace dohperf::world
