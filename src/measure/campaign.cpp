#include "measure/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure/flows.h"
#include "resolver/stub.h"

namespace dohperf::measure {
namespace {

/// Shard-independent description of one retained exit node, precomputed
/// during enumeration so worker shards never touch the geolocation
/// database or the Super Proxy catalog.
struct ExitTask {
  const proxy::ExitNode* exit = nullptr;
  const geo::Country* true_country = nullptr;
  /// Geolocated (/24) position — distances in the dataset use this, as
  /// the paper does, not ground truth.
  geo::LatLon located;
  netsim::Site sp_site;
  /// advertised_iso2 pre-interned on the main thread; records carry this
  /// id so the hot path never touches the string table.
  StrId iso2_id = kNoStrId;
};

/// One Atlas remedy country.
struct AtlasTask {
  std::string iso2;
  StrId iso2_id = kNoStrId;
  int count = 0;
  std::size_t slot_base = 0;  ///< First session slot of this country.
};

/// Everything one session writes. Each session owns exactly one slot, so
/// shards never contend and the merge is a deterministic concatenation in
/// canonical slot order regardless of scheduling.
struct SessionOutput {
  std::vector<DohRecord> doh;
  std::vector<Do53Record> do53;
  std::uint64_t failed = 0;
};

/// The campaign's immutable work description, built once on the main
/// thread: the retained exits and Atlas countries (with their iso2 /
/// provider names pre-interned in canonical order — providers in catalog
/// order, then countries in world order), the canonical session-slot
/// layout, and the client roster. Shards share it read-only; both sink
/// modes consume the same plan, which is what keeps them bit-identical.
struct CampaignPlan {
  std::vector<ExitTask> exits;
  std::vector<AtlasTask> atlas;
  std::vector<ClientInfo> clients;  ///< Parallel to `exits`.
  std::size_t n_sessions = 0;
  std::uint64_t discarded_mismatch = 0;
  std::vector<std::string> provider_names;  ///< Canonical catalog order.
  std::vector<StrId> provider_ids;          ///< Parallel to the names.
  StringTable names;
  /// Stateless shared-cache model ([cache] enabled; nullptr otherwise).
  /// Built once on the main thread and shared read-only by every shard —
  /// hit probabilities are pure functions, so no shard ever mutates it.
  std::unique_ptr<const resolver::SharedCacheModel> cache_model;
};

/// A shard's window onto the world: the shared immutable model plus the
/// mutable server stack it must use — either a private replica or (serial
/// reference path) the world's own servers.
struct ShardView {
  world::WorldModel& world;
  netsim::Simulator& sim;
  world::SimContext* replica = nullptr;  ///< nullptr = world's own stack.
  /// Shard-private metrics registry; sessions record into it without
  /// synchronisation and the campaign merges the registries in canonical
  /// shard order after the join.
  obs::Metrics* metrics = nullptr;
  /// Shard-private sim-time series; same ownership and merge story.
  obs::MetricSeries* series = nullptr;
  /// Shard-private anomaly flight recorder; same ownership and merge
  /// story (canonical-order retention makes the merge layout-proof).
  obs::FlightRecorder* recorder = nullptr;
  /// Shard-private SLO outcome tracker; same ownership and merge story
  /// (integer counts keyed by (provider, country, window)). nullptr on
  /// the anomaly replay pass so replays never double-record outcomes.
  obs::SloTracker* slo = nullptr;
  /// Shard-private attribution ledger; same ownership and merge story
  /// (integer microsecond sums and log-bucket sketches keyed by
  /// (provider, country, transport)). nullptr on the replay pass.
  obs::AttributionLedger* attribution = nullptr;

  resolver::DohServer& doh(std::size_t p, std::size_t i) {
    return replica ? replica->doh_server(p, i) : world.doh_server(p, i);
  }
  resolver::AuthoritativeServer& authority() {
    return replica ? replica->authority() : world.authority();
  }
  resolver::RecursiveResolver* local(resolver::RecursiveResolver* r) {
    return replica ? replica->local(r) : r;
  }
};

/// Per-shard, per-exit state persisting across the client's runs: the
/// exit-node copy whose default resolver points into the shard's own
/// stack, the sticky per-provider failure draws, and the hoisted
/// nearest-PoP distance cache (previously a full catalog scan per
/// provider per run).
struct ExitState {
  const ExitTask* task = nullptr;
  proxy::ExitNode local_exit;
  std::vector<bool> provider_failed;
  std::vector<double> nearest_located_miles;
};

/// Merges a session's private metrics into the shard registry when the
/// session's coroutine frame dies. Sessions keep flow-local counters so
/// the flight recorder's before/after snapshots cannot see concurrent
/// sessions' increments; integer merges are commutative, so the frame
/// destruction order cannot change the shard totals.
struct MergeMetricsOnExit {
  obs::Metrics* target = nullptr;
  const obs::Metrics* source = nullptr;

  MergeMetricsOnExit(obs::Metrics* t, const obs::Metrics* s)
      : target(t), source(s) {}
  MergeMetricsOnExit(const MergeMetricsOnExit&) = delete;
  MergeMetricsOnExit& operator=(const MergeMetricsOnExit&) = delete;
  ~MergeMetricsOnExit() {
    if (target != nullptr) target->merge(*source);
  }
};

/// Records each realized fault episode's window as series occupancy
/// counters ("how many sessions had a blackout open in this window") —
/// the join key the health report overlays on the latency series.
/// Windows are already epoch-relative, exactly the series' time base.
/// Occupancy recording horizon: session-long episodes (provider outages
/// end at Duration::max()) are recorded as occupying every window up to
/// here. Sessions at any supported scale finish in single-digit
/// sim-seconds, so the horizon comfortably covers the period that has
/// latency samples to overlay, while keeping the per-episode window walk
/// bounded (120 windows at the default 250 ms width).
constexpr netsim::Duration kFaultRecordHorizon = netsim::from_ms(30000.0);

void record_fault_windows(obs::MetricSeries* series,
                          const netsim::FaultPlan& plan) {
  if (series == nullptr || plan.empty()) return;
  const auto clamp = [](netsim::Duration end) {
    return end < kFaultRecordHorizon ? end : kFaultRecordHorizon;
  };
  for (const netsim::LossSpikeEpisode& ep : plan.loss_spikes()) {
    series->add_count_range({"fault_loss_spike", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::BlackoutEpisode& ep : plan.blackouts()) {
    series->add_count_range({"fault_blackout", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::BrownoutEpisode& ep : plan.brownouts()) {
    series->add_count_range({"fault_brownout", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::ProviderOutageEpisode& ep : plan.provider_outages()) {
    series->add_count_range({"fault_provider_outage", ep.provider, {}},
                            ep.window.start, clamp(ep.window.end));
  }
}

/// FNV-1a over a short string; used only to derive a stable campaign-time
/// phase per country for the recurring regional-blackout schedule.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fault signals for classifying a failed flow: did a declared window of
/// the session's plan overlap the flow's [start, end) interval? Blackout
/// episodes were centered on this session's own focal sites, so window
/// overlap is the relevant test; provider outages additionally match by
/// name.
obs::FlowSignals window_signals(const netsim::FaultPlan* plan,
                                std::string_view provider,
                                netsim::Duration flow_start,
                                netsim::Duration flow_end) {
  obs::FlowSignals signals;
  if (plan == nullptr) return signals;
  for (const netsim::ProviderOutageEpisode& ep : plan->provider_outages()) {
    if (ep.provider == provider && ep.window.start < flow_end &&
        ep.window.end > flow_start) {
      signals.provider_outage = true;
      break;
    }
  }
  for (const netsim::BlackoutEpisode& ep : plan->blackouts()) {
    if (ep.window.start < flow_end && ep.window.end > flow_start) {
      signals.blackout = true;
      break;
    }
  }
  return signals;
}

/// Stable per-session RNG keys. Sessions are keyed by what they measure
/// (exit id + run, or Atlas country + index) — never by shard index or
/// scheduling order — which is what makes the dataset independent of the
/// thread count.
std::string exit_session_key(std::uint64_t exit_id, int run) {
  return "shard-exit-" + std::to_string(exit_id) + "-run-" +
         std::to_string(run);
}

std::string atlas_session_key(const std::string& iso2, int index) {
  return "shard-atlas-" + iso2 + "-" + std::to_string(index);
}

/// Enumerates the retained clients (Maxmind cross-check first) and the
/// Atlas remedy countries in the canonical order, interning every name
/// the records will carry. Runs once, on the main thread, before any
/// shard starts — the interner is never touched concurrently.
CampaignPlan build_plan(world::WorldModel& world,
                        const CampaignConfig& config) {
  CampaignPlan plan;

  for (const anycast::Provider& provider : world.providers()) {
    plan.provider_names.push_back(provider.name());
    plan.provider_ids.push_back(plan.names.intern(provider.name()));
  }

  for (const std::string& iso2 : world.countries()) {
    for (const std::uint64_t id : world.brightdata().exits_in(iso2)) {
      const proxy::ExitNode* exit = world.brightdata().find(id);
      const auto geo_record = world.maxmind().lookup(exit->prefix);
      if (!geo_record || geo_record->country_iso2 != exit->advertised_iso2) {
        ++plan.discarded_mismatch;
        continue;
      }
      ExitTask task;
      task.exit = exit;
      task.true_country = geo::find_country(exit->true_iso2);
      task.located = geo_record->position;
      task.sp_site =
          world.brightdata().nearest_super_proxy(exit->site.position).site;
      task.iso2_id = plan.names.intern(exit->advertised_iso2);
      plan.exits.push_back(std::move(task));

      ClientInfo info;
      info.exit_id = exit->id;
      info.iso2 = exit->advertised_iso2;
      info.position = geo_record->position;
      info.nameserver_distance_miles = geo::distance_miles(
          geo_record->position, world.authority().site().position);
      plan.clients.push_back(std::move(info));
    }
  }

  // Canonical session slots: run-major exit sessions, then Atlas
  // sessions in Super Proxy country order.
  plan.n_sessions =
      static_cast<std::size_t>(config.runs_per_client) * plan.exits.size();
  for (const std::string_view iso2_sv : proxy::kSuperProxyCountries) {
    const std::string iso2(iso2_sv);
    if (!world.atlas().has_probes_in(iso2)) continue;
    AtlasTask t;
    t.iso2 = iso2;
    t.iso2_id = plan.names.intern(iso2);
    t.count = config.atlas_measurements_per_country;
    t.slot_base = plan.n_sessions;
    plan.n_sessions += static_cast<std::size_t>(t.count);
    plan.atlas.push_back(std::move(t));
  }

  if (config.cache.enabled) {
    plan.cache_model =
        std::make_unique<resolver::SharedCacheModel>(config.cache);
  }
  return plan;
}

ExitState make_exit_state(ShardView& view, const ExitTask& task,
                          const netsim::Rng& root,
                          double provider_failure_rate) {
  ExitState st;
  st.task = &task;
  st.local_exit = *task.exit;
  st.local_exit.default_resolver = view.local(task.exit->default_resolver);

  const auto providers = view.world.providers();
  st.provider_failed.reserve(providers.size());
  st.nearest_located_miles.reserve(providers.size());
  for (const anycast::Provider& provider : providers) {
    // Failures persist per (client, provider) pair — a resolver that is
    // unreachable from a client's network stays unreachable across runs,
    // which is what makes Table 3's per-provider client counts fall
    // short of the Do53 total.
    netsim::Rng failure_rng =
        root.split("provider-fail-" + provider.name() + "-" +
                   std::to_string(task.exit->id));
    st.provider_failed.push_back(
        failure_rng.bernoulli(provider_failure_rate));

    // Hoisted per-(exit, provider) nearest-PoP distance: the distance to
    // the closest PoP *as geolocation sees it* (Figure 6's baseline) only
    // depends on the client's located position, so compute it once per
    // campaign instead of once per provider per run. km_to_miles is
    // monotone, so converting the nearest km equals the least mile count.
    st.nearest_located_miles.push_back(geo::km_to_miles(
        anycast::nearest_pops(provider.pops(), task.located, 1).front().km));
  }
  return st;
}

/// One client session: 4 DoH measurements + 1 Do53 measurement.
// `session_key` is taken by value: the caller's string may die while
// this coroutine is suspended in the batch queue.
netsim::Task<void> measure_session(ShardView& view, const ExitState& st,
                                   int run, std::uint64_t slot,
                                   std::string session_key,
                                   netsim::Rng session_rng,
                                   const CampaignConfig& config,
                                   const CampaignPlan& plan,
                                   SessionOutput& out) {
  netsim::NetCtx net{view.sim, view.world.latency(), session_rng};
  const ExitTask& task = *st.task;
  const proxy::ExitNode& exit = st.local_exit;

  // Session-private metrics: the flight recorder diffs counters across a
  // single flow, and concurrent sessions batched on this shard's
  // simulator must not bleed into the diff.
  obs::Metrics session_metrics;
  const MergeMetricsOnExit merge_guard{view.metrics, &session_metrics};
  net.metrics = &session_metrics;

  const netsim::SimTime session_epoch = view.sim.now();
  net.series = {view.series, session_epoch, std::string(),
                exit.advertised_iso2};
  // Attribution labels follow the series labels: country fixed for the
  // session, provider re-pointed before each flow. Flows install their
  // own FlowAttribution; with no ledger the recorder is inert.
  net.attribution.ledger = view.attribution;
  net.attribution.country = exit.advertised_iso2;

  // Virtual campaign time: this session's slot on the multi-day axis.
  // A pure function of the slot, so SLO windows and recurring fault
  // schedules are shard-invariant by construction.
  const netsim::Duration campaign_base =
      config.session_spacing * static_cast<std::int64_t>(slot);
  const auto record_outcome = [&](std::string_view provider,
                                  obs::Outcome outcome, double latency_ms,
                                  bool has_latency) {
    if (view.slo == nullptr) return;
    view.slo->record(provider, exit.advertised_iso2,
                     campaign_base + (view.sim.now() - session_epoch),
                     outcome, latency_ms, has_latency);
  };

  // Flight-recorder wiring. Examination is span-free (sim-time duration
  // + counter deltas); spans are only recorded during the replay pass,
  // and only for the flows the recorder asks for. The scratch tree must
  // be session-owned: sessions interleave on the shard simulator.
  obs::SpanContext flow_spans;
  const bool examine = view.recorder != nullptr &&
                       view.recorder->enabled() &&
                       !view.recorder->capturing();
  const bool capturing =
      view.recorder != nullptr && view.recorder->capturing();

  // Fault episodes are drawn from a private substream (split() is pure,
  // so the session's main draw sequence is untouched) and anchored to
  // the session's own start time: absolute sim time depends on how many
  // sessions this shard ran before, but the epoch-relative clock does
  // not, which keeps the dataset bit-identical across thread counts.
  netsim::FaultPlan fault_plan;
  if (config.faults.enabled()) {
    const geo::LatLon focal[] = {exit.site.position, task.sp_site.position};
    fault_plan = netsim::FaultPlan::sample(config.faults, focal,
                                           plan.provider_names,
                                           session_rng.split("fault-plan"));
    if (config.faults.recurring_enabled()) {
      // Campaign-time recurring schedules, translated into this session's
      // epoch. No RNG: the realized windows are a pure function of
      // (config, slot, country), so they merge bit-identically.
      fault_plan.append_recurring_episodes(
          config.faults, campaign_base, kFaultRecordHorizon,
          plan.provider_names, exit.site.position,
          netsim::Duration{static_cast<std::int64_t>(
              fnv1a64(exit.advertised_iso2) >> 1)});
    }
    net.faults = &fault_plan;
    net.fault_epoch = session_epoch;
    record_fault_windows(view.series, fault_plan);
  }

  // --- DoH: one measurement per studied provider ---------------------
  for (std::size_t p = 0; p < view.world.providers().size(); ++p) {
    anycast::Provider& provider = view.world.providers()[p];
    net.series.provider = provider.name();
    net.attribution.provider = provider.name();
    const bool provider_out =
        net.faults != nullptr &&
        net.faults->provider_down(provider.name(), net.fault_now());
    if (st.provider_failed[p] || provider_out) {
      ++out.failed;
      if (net.metrics != nullptr) ++net.metrics->counters.failures;
      net.series.count("failure", view.sim.now());
      record_outcome(provider.name(),
                     obs::classify_flow_outcome(
                         {.provider_unreachable = st.provider_failed[p],
                          .provider_outage = provider_out}),
                     0.0, false);
      continue;
    }

    const std::size_t pop_index = provider.route(
        exit.site.position, task.true_country->region, net.rng);

    DohProxyParams params;
    params.client = view.world.measurement_client();
    params.super_proxy = task.sp_site;
    params.exit = &exit;
    params.doh = &view.doh(p, pop_index);
    params.doh_hostname = provider.config().doh_hostname;
    params.tls = view.world.config().tls_version;
    params.origin = view.world.origin();

    const obs::MetricCounters before = session_metrics.counters;
    const netsim::SimTime flow_start = view.sim.now();
    const bool capture_this =
        capturing &&
        view.recorder->wants_spans(slot, static_cast<std::uint32_t>(p));
    if (capture_this) {
      flow_spans.clear();
      net.spans = &flow_spans;
    }
    const DohProxyObservation obs =
        co_await doh_via_proxy(net, std::move(params));
    if (capture_this) {
      net.spans = nullptr;
      view.recorder->capture_flow(slot, static_cast<std::uint32_t>(p),
                                  flow_spans, session_epoch);
    } else if (examine) {
      view.recorder->examine_flow(
          slot, static_cast<std::uint32_t>(p), session_key,
          "doh:" + provider.name(),
          netsim::ms_between(flow_start, view.sim.now()), before,
          session_metrics.counters);
    }
    if (!obs.ok) {
      ++out.failed;
      if (net.metrics != nullptr) ++net.metrics->counters.failures;
      net.series.count("failure", view.sim.now());
      record_outcome(provider.name(),
                     obs::classify_flow_outcome(window_signals(
                         net.faults, provider.name(),
                         flow_start - session_epoch,
                         view.sim.now() - session_epoch)),
                     0.0, false);
      continue;
    }

    DohRecord rec;
    rec.exit_id = exit.id;
    rec.iso2 = task.iso2_id;
    rec.provider = plan.provider_ids[p];
    rec.run = run;
    rec.pop_index = static_cast<std::uint32_t>(pop_index);
    rec.pop_distance_miles = geo::distance_miles(
        task.located, provider.pops()[pop_index].position);
    // "Potential improvement": distance to the PoP actually used minus
    // distance to the closest PoP *as geolocation sees it* (Figure 6).
    rec.potential_improvement_miles =
        rec.pop_distance_miles - st.nearest_located_miles[p];
    rec.tdoh_ms = estimate_tdoh_ms(obs.inputs);
    rec.tdohr_ms = estimate_tdohr_ms(obs.inputs);
    if (net.metrics != nullptr) {
      net.metrics->histogram(provider.name()).record(rec.tdoh_ms);
    }
    net.series.latency("doh_ms", view.sim.now(), rec.tdoh_ms);
    record_outcome(
        provider.name(),
        obs::classify_flow_outcome(
            {.ok = true,
             .brownout_delays = session_metrics.counters.brownout_delays -
                                before.brownout_delays}),
        rec.tdoh_ms, true);
    out.doh.push_back(rec);
  }

  // --- Warm path: steady-state pricing under [cache]/[reuse] ----------
  // Disabled configs skip the whole block without touching net.rng, so
  // the cold measurements above and the Do53 flow below see exactly the
  // draw sequence they always did and datasets stay byte-identical.
  if (config.cache.enabled || config.reuse.enabled) {
    const resolver::SharedCacheModel* model = plan.cache_model.get();
    const auto record_warm = [&](const WarmPathObservation& wobs,
                                 const char* prefix) {
      for (const WarmQueryObservation& q : wobs.queries) {
        if (!q.valid()) continue;
        // Per-query-index latency histograms; the tail shares one bucket
        // so the histogram count stays bounded for long sessions.
        const int index_bucket = std::min(q.query_index, 7);
        if (net.metrics != nullptr) {
          net.metrics->histogram(std::string(prefix) + "_warm_q" +
                                 std::to_string(index_bucket))
              .record(q.ms);
        }
        net.series.latency(std::string(prefix) + "_warm_ms",
                           view.sim.now(), q.ms);
      }
      if (net.metrics != nullptr) {
        net.metrics->counters.pool_cold += wobs.pool.cold;
        net.metrics->counters.pool_reuses += wobs.pool.reused;
        net.metrics->counters.pool_resumptions += wobs.pool.resumed;
        net.metrics->counters.pool_evictions += wobs.pool.evictions;
        if (!wobs.ok) ++net.metrics->counters.failures;
      }
      if (!wobs.ok) net.series.count("failure", view.sim.now());
    };

    for (std::size_t p = 0; p < view.world.providers().size(); ++p) {
      anycast::Provider& provider = view.world.providers()[p];
      if (st.provider_failed[p]) continue;
      net.series.provider = provider.name();
      net.attribution.provider = provider.name();
      const std::size_t pop_index = provider.route(
          exit.site.position, task.true_country->region, net.rng);
      WarmDohParams wp;
      wp.vantage = exit.site;
      wp.default_resolver = exit.default_resolver;
      wp.doh = &view.doh(p, pop_index);
      wp.doh_hostname = provider.config().doh_hostname;
      wp.tls = view.world.config().tls_version;
      wp.origin = view.world.origin();
      wp.cache = model;
      // Centralized deployment: the provider PoP aggregates the whole
      // configured population behind one cache.
      wp.population = config.cache.population;
      wp.reuse = config.reuse;
      record_warm(co_await doh_warm_path(net, std::move(wp)), "doh");
    }

    // Do53 counterpart: same think-time/query schedule, but UDP (no
    // pool) and a *distributed* cache — only this ISP's share of the
    // population warms the default resolver.
    net.series.provider = "Do53";
    net.attribution.provider = "Do53";
    WarmDo53Params dp;
    dp.vantage = exit.site;
    dp.resolver = exit.default_resolver;
    dp.origin = view.world.origin();
    dp.cache = model;
    dp.population = config.cache.population * config.cache.isp_share;
    dp.reuse = config.reuse;
    record_warm(co_await do53_warm_path(net, std::move(dp)), "do53");
  }

  // --- Do53 via the default resolver ----------------------------------
  net.series.provider = "Do53";
  net.attribution.provider = "Do53";
  Do53ProxyParams params;
  params.client = view.world.measurement_client();
  params.super_proxy = task.sp_site;
  params.exit = &exit;
  params.web_server = view.authority().site();  // co-hosted with a.com NS
  params.origin = view.world.origin();
  params.resolve_at_super_proxy =
      proxy::resolves_dns_at_super_proxy(exit.advertised_iso2);
  params.authority = &view.authority();

  const obs::MetricCounters before = session_metrics.counters;
  const netsim::SimTime flow_start = view.sim.now();
  const auto do53_index =
      static_cast<std::uint32_t>(view.world.providers().size());
  const bool capture_this =
      capturing && view.recorder->wants_spans(slot, do53_index);
  if (capture_this) {
    flow_spans.clear();
    net.spans = &flow_spans;
  }
  const Do53ProxyObservation obs =
      co_await do53_via_proxy(net, std::move(params));
  if (capture_this) {
    net.spans = nullptr;
    view.recorder->capture_flow(slot, do53_index, flow_spans,
                                session_epoch);
  } else if (examine) {
    view.recorder->examine_flow(
        slot, do53_index, session_key, "do53",
        netsim::ms_between(flow_start, view.sim.now()), before,
        session_metrics.counters);
  }
  if (!obs.ok) {
    ++out.failed;
    if (net.metrics != nullptr) ++net.metrics->counters.failures;
    net.series.count("failure", view.sim.now());
    record_outcome("Do53",
                   obs::classify_flow_outcome(window_signals(
                       net.faults, "Do53", flow_start - session_epoch,
                       view.sim.now() - session_epoch)),
                   0.0, false);
    co_return;
  }
  record_outcome(
      "Do53",
      obs::classify_flow_outcome(
          {.ok = true,
           .brownout_delays = session_metrics.counters.brownout_delays -
                              before.brownout_delays}),
      obs.tun.dns_ms, !obs.resolved_at_super_proxy);
  if (!obs.resolved_at_super_proxy) {
    if (net.metrics != nullptr) {
      net.metrics->histogram("Do53").record(obs.tun.dns_ms);
    }
    net.series.latency("do53_ms", view.sim.now(), obs.tun.dns_ms);
    Do53Record rec;
    rec.exit_id = exit.id;
    rec.iso2 = task.iso2_id;
    rec.run = run;
    rec.via_atlas = false;
    rec.do53_ms = obs.tun.dns_ms;
    out.do53.push_back(rec);
  }
  // In Super Proxy countries the header value reflects the Super Proxy's
  // own resolution and is discarded; Atlas fills the gap below.
}

/// One Atlas Do53 measurement in `iso2`.
// `iso2` and `session_key` are taken by value: the caller's strings may
// die while this coroutine is suspended in the batch queue.
netsim::Task<void> atlas_session(ShardView& view, std::string iso2,
                                 StrId iso2_id, std::uint64_t slot,
                                 std::string session_key,
                                 netsim::Rng session_rng,
                                 const CampaignConfig& config,
                                 SessionOutput& out) {
  netsim::NetCtx net{view.sim, view.world.latency(), session_rng};
  obs::Metrics session_metrics;
  const MergeMetricsOnExit merge_guard{view.metrics, &session_metrics};
  net.metrics = &session_metrics;

  const netsim::SimTime session_epoch = view.sim.now();
  net.series = {view.series, session_epoch, "Do53", iso2};
  net.attribution.ledger = view.attribution;
  net.attribution.provider = "Do53";
  net.attribution.country = iso2;

  const proxy::AtlasProbe* probe =
      view.world.atlas().pick_probe(iso2, net.rng);
  if (probe == nullptr) co_return;
  proxy::AtlasProbe local_probe = *probe;
  local_probe.default_resolver = view.local(probe->default_resolver);

  const netsim::Duration campaign_base =
      config.session_spacing * static_cast<std::int64_t>(slot);
  const auto record_outcome = [&](obs::Outcome outcome, double latency_ms,
                                  bool has_latency) {
    if (view.slo == nullptr) return;
    view.slo->record("Do53", iso2,
                     campaign_base + (view.sim.now() - session_epoch),
                     outcome, latency_ms, has_latency);
  };

  // Atlas probes see the same weather as the proxy clients: episodes
  // centred near the probe itself (no Super Proxy leg, no DoH provider).
  netsim::FaultPlan fault_plan;
  if (config.faults.enabled()) {
    const geo::LatLon focal[] = {local_probe.site.position};
    fault_plan = netsim::FaultPlan::sample(config.faults, focal, {},
                                           session_rng.split("fault-plan"));
    if (config.faults.recurring_enabled()) {
      fault_plan.append_recurring_episodes(
          config.faults, campaign_base, kFaultRecordHorizon, {},
          local_probe.site.position,
          netsim::Duration{
              static_cast<std::int64_t>(fnv1a64(iso2) >> 1)});
    }
    net.faults = &fault_plan;
    net.fault_epoch = session_epoch;
    record_fault_windows(view.series, fault_plan);
  }

  obs::SpanContext flow_spans;
  const bool examine = view.recorder != nullptr &&
                       view.recorder->enabled() &&
                       !view.recorder->capturing();
  const bool capture_this = view.recorder != nullptr &&
                            view.recorder->capturing() &&
                            view.recorder->wants_spans(slot, 0);
  const obs::MetricCounters before = session_metrics.counters;
  const netsim::SimTime flow_start = view.sim.now();
  if (capture_this) net.spans = &flow_spans;

  // Fresh UUID per measurement (cache-miss by construction).
  const double ms = co_await view.world.atlas().measure_do53(
      net, local_probe,
      view.world.origin().with_subdomain(resolver::uuid_label(net.rng)));
  if (capture_this) {
    net.spans = nullptr;
    view.recorder->capture_flow(slot, 0, flow_spans, session_epoch);
  } else if (examine) {
    view.recorder->examine_flow(
        slot, 0, session_key, "atlas_do53",
        netsim::ms_between(flow_start, view.sim.now()), before,
        session_metrics.counters);
  }
  if (ms < 0) {
    ++out.failed;
    if (net.metrics != nullptr) ++net.metrics->counters.failures;
    net.series.count("failure", view.sim.now());
    record_outcome(obs::classify_flow_outcome(window_signals(
                       net.faults, "Do53", flow_start - session_epoch,
                       view.sim.now() - session_epoch)),
                   0.0, false);
    co_return;
  }
  if (net.metrics != nullptr) net.metrics->histogram("Do53").record(ms);
  net.series.latency("do53_ms", view.sim.now(), ms);
  record_outcome(
      obs::classify_flow_outcome(
          {.ok = true,
           .brownout_delays = session_metrics.counters.brownout_delays -
                              before.brownout_delays}),
      ms, true);
  Do53Record rec;
  rec.exit_id = kAtlasExitId;
  rec.iso2 = iso2_id;
  rec.run = 0;
  rec.via_atlas = true;
  rec.do53_ms = ms;
  out.do53.push_back(rec);
}

/// Runs every session owned by one shard (exit index and Atlas-country
/// index modulo shard count) against `view`'s server stack. Returns the
/// shard's self-profile (events, sessions, wall time, queue pressure,
/// arena counters).
///
/// Sink modes: with `retained` the session rows land in the canonical
/// per-slot outputs and survive the run; with `stream` each drained
/// batch's rows are folded into the shard's StreamSink in ascending slot
/// order and the slot buffers are recycled (capacity kept), so resident
/// memory is bounded by one batch regardless of the session count.
///
/// All coroutine frames allocated inside this function come from the
/// shard's slab arena (ArenaScope installs it on this thread); by the
/// final drain every frame has been recycled, and the arena's high-water
/// mark is published in the profile.
ShardProfile run_shard(ShardView view, int shard_index, int shard_count,
                       const CampaignConfig& config,
                       const netsim::Rng& root, const CampaignPlan& plan,
                       std::vector<SessionOutput>* retained,
                       StreamSink* stream) {
  const auto wall_start = std::chrono::steady_clock::now();
  ShardProfile profile;
  profile.shard = shard_index;
  std::uint64_t events = 0;

  netsim::Arena arena;
  {
    const netsim::ArenaScope arena_scope(arena);
    const std::size_t batch_cap = std::max<std::size_t>(1, config.batch_size);

    // Per-exit state for this shard's slice, keyed by exit index.
    std::vector<std::pair<std::size_t, ExitState>> states;
    for (std::size_t e = 0; e < plan.exits.size(); ++e) {
      if (static_cast<int>(e % static_cast<std::size_t>(shard_count)) !=
          shard_index) {
        continue;
      }
      states.emplace_back(
          e, make_exit_state(view, plan.exits[e], root,
                             config.provider_failure_rate));
    }

    // Run sessions in batches so coroutine frames stay bounded. In
    // streaming mode each batch position owns a recycled SessionOutput;
    // tasks are pushed in ascending slot order within the shard, so the
    // fold below visits rows in canonical order.
    std::vector<SessionOutput> ring;
    if (stream != nullptr) ring.resize(batch_cap);
    std::vector<netsim::Task<void>> batch;
    batch.reserve(batch_cap);
    auto drain = [&] {
      events += view.sim.run();
      for (auto& task : batch) task.result();  // propagate exceptions
      if (stream != nullptr) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          SessionOutput& s = ring[i];
          stream->fold(s.doh, s.do53, s.failed);
          s.doh.clear();
          s.do53.clear();
          s.failed = 0;
        }
      }
      batch.clear();
    };
    auto slot_output = [&](std::size_t slot) -> SessionOutput& {
      return retained != nullptr ? (*retained)[slot] : ring[batch.size()];
    };

    for (int run = 0; run < config.runs_per_client; ++run) {
      for (const auto& [e, st] : states) {
        const std::size_t slot =
            static_cast<std::size_t>(run) * plan.exits.size() + e;
        std::string key = exit_session_key(st.task->exit->id, run);
        netsim::Rng session_rng = root.split(key);
        SessionOutput& out = slot_output(slot);
        batch.push_back(measure_session(
            view, st, run, static_cast<std::uint64_t>(slot), std::move(key),
            std::move(session_rng), config, plan, out));
        ++profile.sessions;
        if (batch.size() >= batch_cap) drain();
      }
    }
    drain();

    // The Atlas remedy for the 11 Super Proxy countries.
    for (std::size_t c = 0; c < plan.atlas.size(); ++c) {
      if (static_cast<int>(c % static_cast<std::size_t>(shard_count)) !=
          shard_index) {
        continue;
      }
      const AtlasTask& t = plan.atlas[c];
      for (int i = 0; i < t.count; ++i) {
        const std::size_t slot = t.slot_base + static_cast<std::size_t>(i);
        std::string key = atlas_session_key(t.iso2, i);
        netsim::Rng session_rng = root.split(key);
        SessionOutput& out = slot_output(slot);
        batch.push_back(atlas_session(
            view, t.iso2, t.iso2_id, static_cast<std::uint64_t>(slot),
            std::move(key), std::move(session_rng), config, out));
        ++profile.sessions;
        if (batch.size() >= batch_cap) drain();
      }
    }
    drain();
  }
  profile.arena = arena.stats();

  profile.events = events;
  profile.queue_high_water = view.sim.queue_high_water();
  profile.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return profile;
}

/// Replay pass: re-derives the span trees of the retained anomalies by
/// re-running exactly their sessions on a fresh replica with span
/// recording on. Sessions are keyed by what they measure and behave
/// epoch-relatively (the serial-vs-sharded bit-identity rests on the
/// same property), so a replayed flow records the identical tree it
/// would have recorded the first time — which is what lets the hot path
/// examine millions of flows without materializing a single span.
void replay_anomaly_spans(world::WorldModel& world,
                          const CampaignConfig& config,
                          const netsim::Rng& root, const CampaignPlan& plan,
                          obs::FlightRecorder& recorder) {
  if (recorder.retained().empty()) return;

  std::vector<obs::FlowKey> keys;
  keys.reserve(recorder.retained().size());
  for (const auto& [key, rec] : recorder.retained()) keys.push_back(key);

  obs::FlightRecorder capturer(recorder.policy());
  capturer.capture_spans_for(keys);

  const std::unique_ptr<world::SimContext> replica = world.make_replica();
  ShardView view{world, replica->sim(), replica.get(), nullptr, nullptr,
                 &capturer};

  const std::size_t n_exit_sessions =
      static_cast<std::size_t>(config.runs_per_client) * plan.exits.size();
  SessionOutput scratch;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::uint64_t slot = keys[k].first;
    if (k > 0 && keys[k - 1].first == slot) continue;  // session done
    if (slot < n_exit_sessions) {
      const auto e = static_cast<std::size_t>(slot % plan.exits.size());
      const int run = static_cast<int>(slot / plan.exits.size());
      const ExitState st = make_exit_state(view, plan.exits[e], root,
                                           config.provider_failure_rate);
      std::string key = exit_session_key(st.task->exit->id, run);
      netsim::Rng session_rng = root.split(key);
      netsim::Task<void> task = measure_session(
          view, st, run, slot, std::move(key), std::move(session_rng),
          config, plan, scratch);
      view.sim.run();
      task.result();
    } else {
      for (const AtlasTask& t : plan.atlas) {
        if (slot < t.slot_base ||
            slot >= t.slot_base + static_cast<std::size_t>(t.count)) {
          continue;
        }
        const int i = static_cast<int>(slot - t.slot_base);
        std::string key = atlas_session_key(t.iso2, i);
        netsim::Rng session_rng = root.split(key);
        netsim::Task<void> task = atlas_session(
            view, t.iso2, t.iso2_id, slot, std::move(key),
            std::move(session_rng), config, scratch);
        view.sim.run();
        task.result();
        break;
      }
    }
    scratch = SessionOutput{};  // replay output is never published
  }

  for (const auto& [key, spans] : capturer.captured()) {
    recorder.attach_spans(key, spans);
  }
}

/// Sums `from` into `into`. Every cell is an integer sum and anomaly
/// retention is keyed by canonical flow position, so merge order cannot
/// change the result; finalize `into.anomalies` after the last merge.
void merge_into(CampaignTelemetry& into, const CampaignTelemetry& from) {
  into.metrics.merge(from.metrics);
  into.series.merge(from.series);
  into.anomalies.merge(from.anomalies);
  into.slo.merge(from.slo);
  into.attribution.merge(from.attribution);
}

/// Shared execution engine behind both sink modes: spins up the shard
/// workers (or the serial reference path when `shards` == 0), routes
/// each shard's rows into either the retained per-slot outputs or its
/// private StreamSink, merges the shards' telemetry into `telemetry` in
/// canonical shard order, runs the anomaly replay pass, and returns the
/// shard profiles.
std::vector<ShardProfile> execute_campaign(
    world::WorldModel& world, const CampaignConfig& config,
    const netsim::Rng& root, const CampaignPlan& plan, int shards,
    std::vector<SessionOutput>* retained, std::vector<StreamSink>* sinks,
    CampaignTelemetry& telemetry) {
  // One set of telemetry sinks per shard; sessions record without
  // contention and everything merges below in canonical shard order.
  const std::size_t n_shards = static_cast<std::size_t>(std::max(shards, 1));
  std::vector<CampaignTelemetry> shard_telemetry(n_shards);
  for (CampaignTelemetry& t : shard_telemetry) {
    t.series = obs::MetricSeries(config.series_window);
    t.anomalies = obs::FlightRecorder(config.anomalies);
    t.slo = obs::SloTracker(config.slo);
  }
  const auto view = [&](netsim::Simulator& sim, world::SimContext* replica,
                        CampaignTelemetry& t) {
    return ShardView{world,     sim,          replica, &t.metrics,
                     &t.series, &t.anomalies, &t.slo,  &t.attribution};
  };
  std::vector<ShardProfile> profiles(n_shards);

  if (shards == 0) {
    // Serial reference path: the world's own simulator and servers.
    profiles[0] = run_shard(view(world.sim(), nullptr, shard_telemetry[0]),
                            0, 1, config, root, plan, retained,
                            sinks != nullptr ? &(*sinks)[0] : nullptr);
  } else {
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(shards));
    workers.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      workers.emplace_back([&, s] {
        try {
          // Each worker builds (and owns) its replica so even the server
          // stack replication runs in parallel.
          const std::unique_ptr<world::SimContext> replica =
              world.make_replica();
          const auto si = static_cast<std::size_t>(s);
          profiles[si] = run_shard(
              view(replica->sim(), replica.get(), shard_telemetry[si]), s,
              shards, config, root, plan, retained,
              sinks != nullptr ? &(*sinks)[si] : nullptr);
        } catch (...) {
          errors[static_cast<std::size_t>(s)] = std::current_exception();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  // Shard 0's sinks become the merged sinks by move; every later shard is
  // summed in and released at once. Merging is integer addition (and
  // canonical-order anomaly retention), so this equals merging every
  // shard into empty sinks, and one shard is never copied at all.
  telemetry = std::move(shard_telemetry[0]);
  for (std::size_t s = 1; s < n_shards; ++s) {
    merge_into(telemetry, shard_telemetry[s]);
    shard_telemetry[s] = CampaignTelemetry();
  }
  telemetry.anomalies.finalize();
  // Fill in the retained anomalies' span trees by deterministically
  // re-running just those sessions (≤ ring_capacity of them) with span
  // recording on — the hot path above examined every flow span-free.
  replay_anomaly_spans(world, config, root, plan, telemetry.anomalies);
  return profiles;
}

}  // namespace

Campaign::Campaign(world::WorldModel& world, CampaignConfig config)
    : world_(world), config_(config) {}

CampaignTelemetry Campaign::take_telemetry() {
  return std::exchange(telemetry_, CampaignTelemetry());
}

int Campaign::threads_from_env() {
  if (const char* value = std::getenv("DOHPERF_THREADS")) {
    const int n = std::atoi(value);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Dataset Campaign::run() {
  const int threads = config_.threads > 0 ? config_.threads
                                          : threads_from_env();
  return run_impl(std::max(1, threads));
}

Dataset Campaign::run_serial() { return run_impl(0); }

StreamSink Campaign::run_streaming() {
  const int threads = config_.threads > 0 ? config_.threads
                                          : threads_from_env();
  return run_streaming_impl(std::max(1, threads));
}

StreamSink Campaign::run_streaming_serial() { return run_streaming_impl(0); }

Dataset Campaign::run_impl(int shards) {
  const auto wall_start = std::chrono::steady_clock::now();

  CampaignPlan plan = build_plan(world_, config_);
  Dataset out;
  out.names() = plan.names;  // records carry ids from the plan's table
  out.discarded_mismatch = plan.discarded_mismatch;
  for (ClientInfo& info : plan.clients) out.add_client(std::move(info));

  // Session randomness descends from the world seed through stable keys
  // only; split() is a pure function of (seed, tag), so the root can be
  // derived regardless of how much the world RNG has already been used.
  const netsim::Rng root = world_.rng().split("campaign-sessions");

  std::vector<SessionOutput> outputs(plan.n_sessions);
  std::vector<ShardProfile> profiles =
      execute_campaign(world_, config_, root, plan, shards, &outputs,
                       nullptr, telemetry_);

  std::uint64_t events = 0;
  for (const ShardProfile& p : profiles) events += p.events;
  stats_.shards = std::max(shards, 1);
  stats_.shard_profiles = std::move(profiles);

  // --- Merge in canonical slot order -----------------------------------
  for (SessionOutput& slot : outputs) {
    for (DohRecord& rec : slot.doh) out.add_doh(rec);
    for (Do53Record& rec : slot.do53) out.add_do53(rec);
    out.failed_measurements += slot.failed;
  }

  stats_.sessions = plan.n_sessions;
  stats_.events_processed = events;
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return out;
}

StreamSink Campaign::run_streaming_impl(int shards) {
  const auto wall_start = std::chrono::steady_clock::now();

  const CampaignPlan plan = build_plan(world_, config_);

  // Canonical exit enumeration handed to every shard sink so unique-
  // client bitsets and client-stat arrays agree across shard counts.
  std::vector<std::uint64_t> exit_ids;
  std::vector<StrId> exit_iso2;
  std::vector<double> exit_ns_distance;
  exit_ids.reserve(plan.exits.size());
  exit_iso2.reserve(plan.exits.size());
  exit_ns_distance.reserve(plan.exits.size());
  for (std::size_t e = 0; e < plan.exits.size(); ++e) {
    exit_ids.push_back(plan.exits[e].exit->id);
    exit_iso2.push_back(plan.exits[e].iso2_id);
    exit_ns_distance.push_back(plan.clients[e].nameserver_distance_miles);
  }

  const std::size_t n_shards = static_cast<std::size_t>(std::max(shards, 1));
  std::vector<StreamSink> sinks;
  sinks.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    sinks.emplace_back(config_.stream, config_.runs_per_client, exit_ids,
                       exit_iso2, exit_ns_distance, plan.provider_ids,
                       plan.names);
  }

  const netsim::Rng root = world_.rng().split("campaign-sessions");

  std::vector<ShardProfile> profiles =
      execute_campaign(world_, config_, root, plan, shards, nullptr, &sinks,
                       telemetry_);

  std::uint64_t events = 0;
  for (const ShardProfile& p : profiles) events += p.events;
  stats_.shards = std::max(shards, 1);
  stats_.shard_profiles = std::move(profiles);

  StreamSink merged = std::move(sinks[0]);
  for (std::size_t s = 1; s < sinks.size(); ++s) merged.merge(sinks[s]);
  merged.discarded_mismatch = plan.discarded_mismatch;

  stats_.sessions = plan.n_sessions;
  stats_.events_processed = events;
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return merged;
}

}  // namespace dohperf::measure
