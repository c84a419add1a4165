#include "measure/campaign.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "measure/flows.h"
#include "netsim/random.h"
#include "report/format.h"
#include "resolver/stub.h"

namespace dohperf::measure {
namespace {

/// Shard-independent description of one retained exit node, precomputed
/// during enumeration so worker shards never touch the geolocation
/// database or the Super Proxy catalog.
struct ExitTask {
  const proxy::ExitNode* exit = nullptr;
  /// Geolocated (/24) position — distances in the dataset use this, as
  /// the paper does, not ground truth.
  geo::LatLon located;
  netsim::Site sp_site;
  /// advertised_iso2 pre-interned on the main thread; records carry this
  /// id so the hot path never touches the string table.
  obs::StrId iso2_id = obs::kNoStrId;
};

/// One Atlas remedy country.
struct AtlasTask {
  std::string iso2;
  obs::StrId iso2_id = obs::kNoStrId;
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
  std::vector<obs::StrId> provider_ids;     ///< Parallel to the names.
  obs::StringTable names;
  /// Stateless shared-cache model ([cache] enabled; nullptr otherwise).
  /// Built once on the main thread and shared read-only by every shard —
  /// hit probabilities are pure functions, so no shard ever mutates it.
  std::unique_ptr<const resolver::SharedCacheModel> cache_model;
};

/// A shard's window onto the campaign: the immutable config, plan, world
/// model and root RNG every shard shares, the shard's own replica of the
/// world's servers, and the telemetry its sessions record into.
struct ShardView {
  world::WorldModel& world;
  const CampaignConfig& config;
  const CampaignPlan& plan;
  const netsim::Rng& root;
  world::SimContext& stack;
  /// Shard-private sinks; sessions record into them without
  /// synchronisation and the campaign merges them in canonical shard
  /// order after the join. The replay pass points this at scratch sinks.
  CampaignTelemetry* telemetry = nullptr;
  /// The merged recorder on the replay pass, nullptr on the shards:
  /// flows it retains record their spans and attach them to it.
  obs::FlightRecorder* replay = nullptr;
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

/// A failed measurement (cold flow or warm session), counted in the
/// registry and in the `failure` series track.
constexpr obs::Event kFailure{&obs::MetricCounters::failures, "failure"};

/// What one warm path records under: its series track and its
/// per-query-index latency histograms, the last of which the session's
/// later queries share so the histogram count stays bounded.
struct WarmNames {
  std::string_view series;
  std::array<std::string_view, 8> by_query;
};
constexpr WarmNames kDohWarm{
    "doh_warm_ms",
    {"doh_warm_q0", "doh_warm_q1", "doh_warm_q2", "doh_warm_q3",
     "doh_warm_q4", "doh_warm_q5", "doh_warm_q6", "doh_warm_q7"}};
constexpr WarmNames kDo53Warm{
    "do53_warm_ms",
    {"do53_warm_q0", "do53_warm_q1", "do53_warm_q2", "do53_warm_q3",
     "do53_warm_q4", "do53_warm_q5", "do53_warm_q6", "do53_warm_q7"}};

void record_fault_windows(obs::MetricSeries& series,
                          const netsim::FaultPlan& plan) {
  if (plan.empty()) return;
  const auto clamp = [](netsim::Duration end) {
    return end < kFaultRecordHorizon ? end : kFaultRecordHorizon;
  };
  for (const netsim::LossSpikeEpisode& ep : plan.loss_spikes()) {
    series.add_count_range({"fault_loss_spike", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::BlackoutEpisode& ep : plan.blackouts()) {
    series.add_count_range({"fault_blackout", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::BrownoutEpisode& ep : plan.brownouts()) {
    series.add_count_range({"fault_brownout", {}, {}}, ep.window.start,
                            clamp(ep.window.end));
  }
  for (const netsim::ProviderOutageEpisode& ep : plan.provider_outages()) {
    series.add_count_range({"fault_provider_outage", ep.provider, {}},
                            ep.window.start, clamp(ep.window.end));
  }
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

ExitState make_exit_state(ShardView& view, const ExitTask& task) {
  ExitState st;
  st.task = &task;
  st.local_exit = *task.exit;
  st.local_exit.default_resolver =
      view.stack.local(task.exit->default_resolver);

  const auto providers = view.world.providers();
  st.provider_failed.reserve(providers.size());
  st.nearest_located_miles.reserve(providers.size());
  for (const anycast::Provider& provider : providers) {
    // Failures persist per (client, provider) pair — a resolver that is
    // unreachable from a client's network stays unreachable across runs,
    // which is what makes Table 3's per-provider client counts fall
    // short of the Do53 total.
    netsim::Rng failure_rng =
        view.root.split("provider-fail-" + provider.name() + "-" +
                        std::to_string(task.exit->id));
    st.provider_failed.push_back(
        failure_rng.bernoulli(view.config.provider_failure_rate));

    // Hoisted per-(exit, provider) nearest-PoP distance: the distance to
    // the closest PoP *as geolocation sees it* (Figure 6's baseline) only
    // depends on the client's located position, so compute it once per
    // campaign instead of once per provider per run. km_to_miles is
    // monotone, so converting the nearest km equals the least mile count.
    st.nearest_located_miles.push_back(geo::km_to_miles(
        anycast::nearest_pop(provider.pops(), task.located).km));
  }
  return st;
}

/// A measured flow in flight, from Session::begin_flow to
/// Session::end_flow.
struct FlowStart {
  std::uint32_t index = 0;  ///< Flow position in its session.
  std::string label;        ///< e.g. "doh:Cloudflare", "do53".
  netsim::SimTime at{};
  obs::MetricCounters before;  ///< Session counters when the flow began.
  bool capture = false;        ///< Replay pass: record this flow's spans.
};

/// What both session kinds set up before their first flow and consult at
/// every flow's exit. It lives in the session's coroutine frame: sessions
/// interleave on the shard simulator, so none of it can be shared. A
/// session awaits its flows one at a time, so it holds the one flow in
/// flight.
struct Session {
  /// `focal` centres the sampled fault episodes (its first site also
  /// centres the recurring regional blackouts); `providers` are the
  /// provider names outage episodes may target.
  Session(ShardView& shard, std::uint64_t session_slot,
          const std::string& session_key, netsim::Rng& rng,
          std::string_view session_country,
          std::span<const geo::LatLon> focal,
          std::span<const std::string> providers, SessionOutput& rows)
      : view(shard),
        slot(session_slot),
        key(session_key),
        out(rows),
        net{shard.stack.sim(), shard.world.latency(), rng},
        epoch(shard.stack.sim().now()),
        campaign_base(shard.config.session_spacing *
                      static_cast<std::int64_t>(session_slot)),
        examine(shard.telemetry->anomalies.enabled() &&
                shard.replay == nullptr) {
    net.metrics = &metrics;
    net.series = {&view.telemetry->series, epoch};
    // Flow roots install their own FlowAttribution.
    net.attribution.ledger = &view.telemetry->attribution;
    // The country is fixed for the session; label() re-points the
    // provider before each flow.
    net.labels.country = session_country;

    // Fault episodes are drawn from a private substream (split() is pure,
    // so the session's main draw sequence is untouched) and anchored to
    // the session's own start time: absolute sim time depends on how many
    // sessions this shard ran before, but the epoch-relative clock does
    // not, which keeps the dataset bit-identical across thread counts.
    const netsim::FaultPlanConfig& faults = view.config.faults;
    if (!faults.enabled()) return;
    fault_plan = netsim::FaultPlan::sample(faults, focal, providers,
                                           rng.split("fault-plan"));
    if (faults.recurring_enabled()) {
      // Campaign-time recurring schedules, translated into this session's
      // epoch. No RNG: the realized windows are a pure function of
      // (config, slot, country), so they merge bit-identically.
      fault_plan.append_recurring_episodes(
          faults, campaign_base, kFaultRecordHorizon, providers,
          focal.front(),
          netsim::Duration{static_cast<std::int64_t>(
              netsim::fnv1a64(session_country, netsim::kShortFnvBasis) >>
              1)});
    }
    net.faults = &fault_plan;
    net.fault_epoch = epoch;
    record_fault_windows(view.telemetry->series, fault_plan);
  }

  /// Sums the session's metrics into the shard's when the session's
  /// coroutine frame dies. Integer merges are commutative, so the frame
  /// destruction order cannot change the shard totals.
  ~Session() { view.telemetry->metrics.merge(metrics); }
  Session(const Session&) = delete;

  /// Labels the series and attribution records of the flows that follow.
  void label(std::string_view provider) { net.labels.provider = provider; }

  /// Opens flow `index`; call it just before the flow is awaited.
  void begin_flow(std::uint32_t index, std::string label) {
    flow = FlowStart{index, std::move(label), view.stack.sim().now(),
                     metrics.counters,
                     view.replay != nullptr &&
                         view.replay->retained().contains({slot, index})};
    if (flow->capture) {
      flow_spans.clear();
      net.spans = &flow_spans;
    }
  }

  /// The one flow exit, at the flow's completion instant: examines the
  /// flow in flight (or attaches its spans on the replay pass), accounts
  /// a failure, classifies and records the outcome against the labelled
  /// provider and country, and records a success's latency into the
  /// provider histogram and the `latency_series` track (no sample when
  /// null). With no flow in flight, the session skipped the flow for the
  /// reasons in `signals`.
  void end_flow(obs::FlowSignals signals,
                const char* latency_series = nullptr,
                double latency_ms = 0.0) {
    const netsim::SimTime now = view.stack.sim().now();
    const auto [provider, country] = net.labels;
    if (flow) {
      if (flow->capture) {
        net.spans = nullptr;
        view.replay->attach_spans(
            {slot, flow->index},
            obs::rebase_to_epoch(flow_spans.spans(), epoch));
      } else if (examine) {
        view.telemetry->anomalies.examine_flow(
            slot, flow->index, key, flow->label,
            netsim::ms_between(flow->at, now), flow->before,
            metrics.counters);
      }
      if (signals.ok) {
        signals.brownout_delays =
            metrics.counters.brownout_delays - flow->before.brownout_delays;
      } else {
        signals = window_signals(net.faults, provider, flow->at - epoch,
                                 now - epoch);
      }
      flow.reset();
    }
    if (!signals.ok) {
      ++out.failed;
      net.note(kFailure);
    }
    const bool sampled = signals.ok && latency_series != nullptr;
    view.telemetry->slo.record(provider, country,
                               campaign_base + (now - epoch),
                               obs::classify_flow_outcome(signals),
                               sampled ? latency_ms : 0.0, sampled);
    if (sampled) {
      view.telemetry->metrics.histogram(provider).record(latency_ms);
      net.series.latency(latency_series, net.labels, now, latency_ms);
    }
  }

  ShardView& view;
  const std::uint64_t slot;
  const std::string& key;  ///< The coroutine's own copy.
  SessionOutput& out;
  netsim::NetCtx net;
  /// Session-private metrics: the flight recorder diffs counters across a
  /// single flow, and concurrent sessions batched on this shard's
  /// simulator must not bleed into the diff. The flow latency histograms
  /// take no part in the diff, so end_flow and the warm path record them
  /// straight into the shard registry (bucket adds commute).
  obs::Metrics metrics;
  const netsim::SimTime epoch;
  /// Virtual campaign time: this session's slot on the multi-day axis. A
  /// pure function of the slot, so SLO windows and recurring fault
  /// schedules are shard-invariant by construction.
  const netsim::Duration campaign_base;
  /// Examination is span-free (sim-time duration + counter deltas); spans
  /// are only recorded during the replay pass, and only for the flows the
  /// merged recorder retains.
  const bool examine;
  obs::SpanContext flow_spans;
  netsim::FaultPlan fault_plan;
  std::optional<FlowStart> flow;
};

/// One client session: 4 DoH measurements + 1 Do53 measurement.
// `session_key` is taken by value: the caller's string may die while
// this coroutine is suspended in the batch queue.
netsim::Task<void> measure_session(ShardView& view, const ExitState& st,
                                   int run, std::uint64_t slot,
                                   std::string session_key,
                                   netsim::Rng session_rng,
                                   SessionOutput& out) {
  const CampaignConfig& config = view.config;
  const ExitTask& task = *st.task;
  const proxy::ExitNode& exit = st.local_exit;
  const geo::LatLon focal[] = {exit.site.position, task.sp_site.position};
  Session s(view, slot, session_key, session_rng, exit.advertised_iso2,
            focal, view.plan.provider_names, out);
  netsim::NetCtx& net = s.net;

  // --- DoH: one measurement per studied provider ---------------------
  for (std::size_t p = 0; p < view.world.providers().size(); ++p) {
    anycast::Provider& provider = view.world.providers()[p];
    s.label(provider.name());
    const bool provider_out =
        net.faults != nullptr &&
        net.faults->provider_down(provider.name(), net.fault_now());
    if (st.provider_failed[p] || provider_out) {
      s.end_flow({.provider_unreachable = st.provider_failed[p],
                  .provider_outage = provider_out});
      continue;
    }

    const std::size_t pop_index =
        provider.route(exit.site.position, exit.anycast_region, net.rng);

    DohProxyParams params;
    params.client = view.world.measurement_client();
    params.super_proxy = task.sp_site;
    params.exit = &exit;
    params.doh = &view.stack.doh_server(p, pop_index);
    params.tls = view.world.config().tls_version;
    params.origin = view.world.origin();

    s.begin_flow(static_cast<std::uint32_t>(p), "doh:" + provider.name());
    const DohProxyObservation obs =
        co_await doh_via_proxy(net, std::move(params));
    const double tdoh_ms = obs.ok ? estimate_tdoh_ms(obs.inputs) : 0.0;
    s.end_flow({.ok = obs.ok}, "doh_ms", tdoh_ms);
    if (!obs.ok) continue;

    DohRecord rec;
    rec.exit_id = exit.id;
    rec.iso2 = task.iso2_id;
    rec.provider = view.plan.provider_ids[p];
    rec.run = run;
    rec.pop_index = static_cast<std::uint32_t>(pop_index);
    rec.pop_distance_miles = geo::distance_miles(
        task.located, provider.pops()[pop_index].position);
    // "Potential improvement": distance to the PoP actually used minus
    // distance to the closest PoP *as geolocation sees it* (Figure 6).
    rec.potential_improvement_miles =
        rec.pop_distance_miles - st.nearest_located_miles[p];
    rec.tdoh_ms = tdoh_ms;
    rec.tdohr_ms = estimate_tdohr_ms(obs.inputs);
    out.doh.push_back(rec);
  }

  // --- Warm path: steady-state pricing under [cache]/[reuse] ----------
  // Disabled configs skip the whole block without touching net.rng, so
  // the cold measurements above and the Do53 flow below see exactly the
  // draw sequence they always did and datasets stay byte-identical.
  if (config.cache.enabled || config.reuse.enabled) {
    const resolver::SharedCacheModel* model = view.plan.cache_model.get();
    const auto record_warm = [&](const WarmPathObservation& wobs,
                                 const WarmNames& names) {
      for (const WarmQueryObservation& q : wobs.queries) {
        if (!q.valid()) continue;
        const auto last = static_cast<int>(names.by_query.size()) - 1;
        view.telemetry->metrics
            .histogram(names.by_query[std::min(q.query_index, last)])
            .record(q.ms);
        net.series.latency(names.series, net.labels, view.stack.sim().now(),
                           q.ms);
      }
      s.metrics.counters.pool_cold += wobs.pool.cold;
      s.metrics.counters.pool_reuses += wobs.pool.reused;
      s.metrics.counters.pool_resumptions += wobs.pool.resumed;
      s.metrics.counters.pool_evictions += wobs.pool.evictions;
      if (!wobs.ok) net.note(kFailure);
    };

    for (std::size_t p = 0; p < view.world.providers().size(); ++p) {
      anycast::Provider& provider = view.world.providers()[p];
      if (st.provider_failed[p]) continue;
      s.label(provider.name());
      const std::size_t pop_index =
          provider.route(exit.site.position, exit.anycast_region, net.rng);
      WarmDohParams wp;
      wp.vantage = exit.site;
      wp.default_resolver = exit.default_resolver;
      wp.doh = &view.stack.doh_server(p, pop_index);
      wp.tls = view.world.config().tls_version;
      wp.origin = view.world.origin();
      wp.cache = model;
      // Centralized deployment: the provider PoP aggregates the whole
      // configured population behind one cache.
      wp.population = config.cache.population;
      wp.reuse = config.reuse;
      record_warm(co_await doh_warm_path(net, std::move(wp)), kDohWarm);
    }

    // Do53 counterpart: same think-time/query schedule, but UDP (no
    // pool) and a *distributed* cache — only this ISP's share of the
    // population warms the default resolver.
    s.label("Do53");
    WarmDo53Params dp;
    dp.vantage = exit.site;
    dp.resolver = exit.default_resolver;
    dp.origin = view.world.origin();
    dp.cache = model;
    dp.population = config.cache.population * config.cache.isp_share;
    dp.reuse = config.reuse;
    record_warm(co_await do53_warm_path(net, std::move(dp)), kDo53Warm);
  }

  // --- Do53 via the default resolver ----------------------------------
  s.label("Do53");
  Do53ProxyParams params;
  params.client = view.world.measurement_client();
  params.super_proxy = task.sp_site;
  params.exit = &exit;
  params.origin = view.world.origin();
  params.authority = &view.stack.authority();  // a.com's NS and web host

  s.begin_flow(static_cast<std::uint32_t>(view.world.providers().size()),
               "do53");
  const Do53ProxyObservation obs =
      co_await do53_via_proxy(net, std::move(params));
  // In Super Proxy countries the header value reflects the Super Proxy's
  // own resolution and is discarded; Atlas fills the gap.
  const bool measured = obs.ok && !obs.resolved_at_super_proxy;
  s.end_flow({.ok = obs.ok}, measured ? "do53_ms" : nullptr, obs.tun.dns_ms);
  if (!measured) co_return;
  Do53Record rec;
  rec.exit_id = exit.id;
  rec.iso2 = task.iso2_id;
  rec.run = run;
  rec.via_atlas = false;
  rec.do53_ms = obs.tun.dns_ms;
  out.do53.push_back(rec);
}

/// One Atlas Do53 measurement in `task`'s country.
// `session_key` is taken by value: the caller's string may die while
// this coroutine is suspended in the batch queue. `task` lives in the
// plan, which outlives every session.
netsim::Task<void> atlas_session(ShardView& view, const AtlasTask& task,
                                 std::uint64_t slot, std::string session_key,
                                 netsim::Rng session_rng,
                                 SessionOutput& out) {
  // The probe is the session's first draw; the fault plan centres on it.
  const proxy::AtlasProbe* probe =
      view.world.atlas().pick_probe(task.iso2, session_rng);
  if (probe == nullptr) co_return;
  proxy::AtlasProbe local_probe = *probe;
  local_probe.default_resolver = view.stack.local(probe->default_resolver);

  // Atlas probes see the same weather as the proxy clients: episodes
  // centred near the probe itself (no Super Proxy leg, no DoH provider).
  const geo::LatLon focal[] = {local_probe.site.position};
  Session s(view, slot, session_key, session_rng, task.iso2, focal, {},
            out);
  s.label("Do53");
  s.begin_flow(0, "atlas_do53");
  // Fresh UUID per measurement (cache-miss by construction).
  const double ms = co_await view.world.atlas().measure_do53(
      s.net, std::move(local_probe),
      resolver::probe_name(s.net.rng, view.world.origin()));
  s.end_flow({.ok = ms >= 0}, "do53_ms", ms);
  if (ms < 0) co_return;
  Do53Record rec;
  rec.exit_id = kAtlasExitId;
  rec.iso2 = task.iso2_id;
  rec.run = 0;
  rec.via_atlas = true;
  rec.do53_ms = ms;
  out.do53.push_back(rec);
}

/// The one slot -> session launcher, for the shard loop and the anomaly
/// replay alike. Exit slots come first, run-major (slot = run * exits +
/// exit index), and run on `exit`, that exit's shard state; Atlas slots
/// (`exit` null) follow in Super Proxy country order. Each session draws
/// from the root substream of a stable key naming what it measures (exit
/// id + run, or Atlas country + index) — never the shard or the schedule
/// — which is what makes the dataset independent of the thread count.
netsim::Task<void> launch_session(ShardView& view, std::size_t slot,
                                  const ExitState* exit,
                                  SessionOutput& out) {
  const CampaignPlan& plan = view.plan;
  if (exit != nullptr) {
    const int run = static_cast<int>(slot / plan.exits.size());
    std::string key = "shard-exit-" + std::to_string(exit->task->exit->id) +
                      "-run-" + std::to_string(run);
    netsim::Rng rng = view.root.split(key);
    return measure_session(view, *exit, run, slot, std::move(key),
                           std::move(rng), out);
  }
  const AtlasTask& task = *std::find_if(
      plan.atlas.begin(), plan.atlas.end(), [slot](const AtlasTask& t) {
        return slot < t.slot_base + static_cast<std::size_t>(t.count);
      });
  std::string key = "shard-atlas-" + task.iso2 + "-" +
                    std::to_string(slot - task.slot_base);
  netsim::Rng rng = view.root.split(key);
  return atlas_session(view, task, slot, std::move(key), std::move(rng),
                       out);
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
                       std::vector<SessionOutput>* retained,
                       StreamSink* stream) {
  const auto wall_start = std::chrono::steady_clock::now();
  const CampaignPlan& plan = view.plan;
  ShardProfile profile;
  profile.shard = shard_index;
  // Exits and Atlas countries are dealt round-robin over the shards.
  const auto owns = [&](std::size_t i) {
    return static_cast<int>(i % static_cast<std::size_t>(shard_count)) ==
           shard_index;
  };

  netsim::Arena arena;
  {
    const netsim::ArenaScope arena_scope(arena);
    const std::size_t batch_cap =
        std::max<std::size_t>(1, view.config.batch_size);

    // Per-exit state for this shard's slice, keyed by exit index.
    std::vector<std::pair<std::size_t, ExitState>> states;
    for (std::size_t e = 0; e < plan.exits.size(); ++e) {
      if (owns(e)) states.emplace_back(e, make_exit_state(view, plan.exits[e]));
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
      profile.events += view.stack.sim().run();
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
    auto launch = [&](std::size_t slot, const ExitState* exit) {
      SessionOutput& out =
          retained != nullptr ? (*retained)[slot] : ring[batch.size()];
      batch.push_back(launch_session(view, slot, exit, out));
      ++profile.sessions;
      if (batch.size() >= batch_cap) drain();
    };

    for (int run = 0; run < view.config.runs_per_client; ++run) {
      for (const auto& [e, st] : states) {
        launch(static_cast<std::size_t>(run) * plan.exits.size() + e, &st);
      }
    }
    drain();

    // The Atlas remedy for the 11 Super Proxy countries.
    for (std::size_t c = 0; c < plan.atlas.size(); ++c) {
      if (!owns(c)) continue;
      const AtlasTask& t = plan.atlas[c];
      for (int i = 0; i < t.count; ++i) {
        launch(t.slot_base + static_cast<std::size_t>(i), nullptr);
      }
    }
    drain();
  }
  profile.arena = arena.stats();
  profile.queue_high_water = view.stack.sim().queue_high_water();
  profile.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return profile;
}

/// Empty sinks configured for `config`: one set per shard, plus the
/// replay pass's scratch set.
CampaignTelemetry fresh_telemetry(const CampaignConfig& config) {
  CampaignTelemetry t;
  t.series = obs::MetricSeries(config.series_window);
  t.anomalies = obs::FlightRecorder(config.anomalies);
  t.slo = obs::SloTracker(config.slo);
  return t;
}

/// Replay pass: re-derives the span trees of the retained anomalies by
/// re-running exactly their sessions on a fresh replica. Each retained
/// flow records its spans and attaches them to `recorder` at its exit;
/// everything else the sessions record goes to scratch sinks and is
/// dropped. Sessions are keyed by what they measure and behave
/// epoch-relatively (the bit-identity across shard counts rests on the
/// same property), so a replayed flow records the identical tree it would have
/// recorded the first time — which is what lets the hot path examine
/// millions of flows without materializing a single span.
void replay_anomaly_spans(world::WorldModel& world,
                          const CampaignConfig& config,
                          const netsim::Rng& root, const CampaignPlan& plan,
                          obs::FlightRecorder& recorder) {
  if (recorder.retained().empty()) return;

  CampaignTelemetry scratch = fresh_telemetry(config);
  const std::unique_ptr<world::SimContext> replica = world.make_replica();
  ShardView view{world, config, plan, root, *replica, &scratch, &recorder};

  const std::size_t n_exit_sessions =
      static_cast<std::size_t>(config.runs_per_client) * plan.exits.size();
  std::optional<std::uint64_t> done;
  for (const auto& [key, rec] : recorder.retained()) {
    const std::uint64_t slot = key.first;
    if (slot == done) continue;  // session already replayed
    done = slot;
    std::optional<ExitState> exit;
    if (slot < n_exit_sessions) {
      exit = make_exit_state(view, plan.exits[slot % plan.exits.size()]);
    }
    SessionOutput rows;  // replay output is never published
    netsim::Task<void> task =
        launch_session(view, slot, exit ? &*exit : nullptr, rows);
    view.stack.sim().run();
    task.result();
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

/// Spins up one worker per shard, each on its own replica of the world's
/// servers, routes each shard's rows into either the retained per-slot
/// outputs or its private StreamSink, merges the shards' telemetry into
/// `telemetry` in canonical shard order, runs the anomaly replay pass,
/// and returns the shard profiles.
std::vector<ShardProfile> execute_campaign(
    world::WorldModel& world, const CampaignConfig& config,
    const netsim::Rng& root, const CampaignPlan& plan, std::size_t n_shards,
    std::vector<SessionOutput>* retained, std::vector<StreamSink>* sinks,
    CampaignTelemetry& telemetry) {
  // One set of telemetry sinks per shard; sessions record without
  // contention and everything merges below in canonical shard order.
  std::vector<CampaignTelemetry> shard_telemetry(n_shards);
  for (CampaignTelemetry& t : shard_telemetry) t = fresh_telemetry(config);
  std::vector<ShardProfile> profiles(n_shards);
  std::vector<std::exception_ptr> errors(n_shards);
  std::vector<std::thread> workers;
  workers.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    workers.emplace_back([&, s] {
      try {
        // Each worker builds (and owns) its replica so even the server
        // stack replication runs in parallel.
        const std::unique_ptr<world::SimContext> replica =
            world.make_replica();
        profiles[s] = run_shard(
            ShardView{world, config, plan, root, *replica, &shard_telemetry[s]},
            static_cast<int>(s), static_cast<int>(n_shards), retained,
            sinks != nullptr ? &(*sinks)[s] : nullptr);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
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

/// DOHPERF_THREADS from the environment, falling back to
/// std::thread::hardware_concurrency() (minimum 1).
int threads_from_env() {
  int n = 0;
  std::string error;
  if (!count_from_env("DOHPERF_THREADS", &n, &error)) {
    throw std::invalid_argument(error);
  }
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

bool parse_count(std::string_view text, int* count) {
  // The number rule takes no '+'; a '-' can only give a value <= 0.
  const std::optional<int> n = report::read_number<int>(text);
  if (!n || *n <= 0) return false;
  *count = *n;
  return true;
}

bool count_from_env(const char* variable, int* count, std::string* error) {
  *count = 0;
  const char* value = std::getenv(variable);
  if (value == nullptr) return true;
  if (!parse_count(std::string_view(value), count)) {
    *error = std::string(variable) +
             ": expected a positive decimal integer, got \"" + value + "\"";
    return false;
  }
  return true;
}

Campaign::Campaign(world::WorldModel& world, CampaignConfig config)
    : world_(world), config_(config) {}

CampaignTelemetry Campaign::take_telemetry() {
  return std::exchange(telemetry_, CampaignTelemetry());
}

Dataset Campaign::run(int shards) {
  Dataset data;
  execute(shards, &data, nullptr);
  return data;
}

StreamSink Campaign::run_streaming(int shards) {
  StreamSink sink;
  execute(shards, nullptr, &sink);
  return sink;
}

void Campaign::execute(int shards, Dataset* dataset, StreamSink* stream) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (shards < 0) {
    shards = config_.threads > 0 ? config_.threads : threads_from_env();
  }
  const std::size_t n_shards = static_cast<std::size_t>(std::max(shards, 1));

  CampaignPlan plan = build_plan(world_, config_);
  // Session randomness descends from the world seed through stable keys
  // only; split() is a pure function of (seed, tag), so the root can be
  // derived regardless of how much the world RNG has already been used.
  const netsim::Rng root = world_.rng().split("campaign-sessions");

  // Retained mode: one output per canonical session slot. Streaming mode:
  // one sink per shard, each over the canonical exit enumeration, so
  // unique-client bitsets and client-stat arrays agree across shard
  // counts.
  std::vector<SessionOutput> outputs;
  std::vector<StreamSink> sinks;
  if (dataset != nullptr) {
    outputs.resize(plan.n_sessions);
  } else {
    std::vector<std::uint64_t> exit_ids;
    std::vector<obs::StrId> exit_iso2;
    std::vector<double> exit_ns_distance;
    for (std::size_t e = 0; e < plan.exits.size(); ++e) {
      exit_ids.push_back(plan.exits[e].exit->id);
      exit_iso2.push_back(plan.exits[e].iso2_id);
      exit_ns_distance.push_back(plan.clients[e].nameserver_distance_miles);
    }
    sinks.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
      sinks.emplace_back(config_.stream, config_.runs_per_client, exit_ids,
                         exit_iso2, exit_ns_distance, plan.provider_ids,
                         plan.names);
    }
  }

  stats_.shard_profiles = execute_campaign(
      world_, config_, root, plan, n_shards,
      dataset != nullptr ? &outputs : nullptr,
      stream != nullptr ? &sinks : nullptr, telemetry_);

  if (dataset != nullptr) {
    // Merge in canonical slot order; records carry ids from the plan's
    // name table.
    dataset->names() = plan.names;
    dataset->discarded_mismatch = plan.discarded_mismatch;
    for (ClientInfo& info : plan.clients) dataset->add_client(std::move(info));
    for (SessionOutput& slot : outputs) {
      for (DohRecord& rec : slot.doh) dataset->add_doh(rec);
      for (Do53Record& rec : slot.do53) dataset->add_do53(rec);
      dataset->failed_measurements += slot.failed;
    }
  } else {
    *stream = std::move(sinks[0]);
    for (std::size_t s = 1; s < n_shards; ++s) stream->merge(sinks[s]);
    stream->discarded_mismatch = plan.discarded_mismatch;
  }

  stats_.shards = static_cast<int>(n_shards);
  stats_.sessions = plan.n_sessions;
  stats_.events_processed = 0;
  for (const ShardProfile& p : stats_.shard_profiles) {
    stats_.events_processed += p.events;
  }
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
}

}  // namespace dohperf::measure
