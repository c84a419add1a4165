// Tests for phase-exact latency attribution: the FlowAttribution frame
// algebra (push/pop/relabel/shift under arbitrary interleavings), the
// bootstrap DNS redirect, ledger aggregation, the CSV round trip, and —
// end to end — the closed-partition invariant sum(phases) == total_us
// for every instrumented flow type, including retry-heavy fault runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "dns/zone.h"
#include "measure/campaign.h"
#include "measure/flows.h"
#include "measure/warm.h"
#include "netsim/faultplan.h"
#include "obs/attribution.h"
#include "report/attribution.h"
#include "resolver/shared_cache.h"
#include "resolver/stub.h"
#include "web/pageload.h"
#include "world/world_model.h"

namespace dohperf {
namespace {

using netsim::SimTime;
using obs::AttributionEntry;
using obs::AttributionLedger;
using obs::AttributionRecorder;
using obs::FlowAttribution;
using obs::kPhaseCount;
using obs::Phase;

SimTime at_ms(double ms) { return SimTime{} + netsim::from_ms(ms); }

std::uint64_t phase_sum(const FlowAttribution& flow) {
  std::uint64_t sum = 0;
  for (const Phase phase : obs::kPhases) sum += flow.phase_us(phase);
  return sum;
}

std::uint64_t entry_phase_sum(const AttributionEntry& entry) {
  std::uint64_t sum = 0;
  for (const auto& phase : entry.phases) sum += phase.us;
  return sum;
}

// ------------------------------------------------------ FlowAttribution

TEST(FlowAttributionTest, BaseFrameIsTransfer) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.total_us(), 10'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 10'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(FlowAttributionTest, TimeAccruesToInnermostFrame) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  const auto tcp = flow.push(Phase::kTcpHandshake, at_ms(0));
  const auto tls = flow.push(Phase::kTlsHandshake, at_ms(4));
  flow.pop(tls, at_ms(7));
  flow.pop(tcp, at_ms(9));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.phase_us(Phase::kTcpHandshake), 6'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTlsHandshake), 3'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 1'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(FlowAttributionTest, OutOfStackOrderPopsKeepPartitionExact) {
  // Page loads pop frames out of stack order (concurrent per-domain
  // subflows share one context); the fold must stay a partition.
  FlowAttribution flow;
  flow.begin(at_ms(0));
  const auto a = flow.push(Phase::kTcpHandshake, at_ms(0));
  const auto b = flow.push(Phase::kServerProcessing, at_ms(2));
  flow.pop(a, at_ms(5));  // outer popped first
  flow.pop(b, at_ms(8));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.phase_us(Phase::kTcpHandshake), 2'000u);
  EXPECT_EQ(flow.phase_us(Phase::kServerProcessing), 6'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 2'000u);
  EXPECT_EQ(flow.total_us(), 10'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(FlowAttributionTest, UnknownAndZeroTokensAreNoOps) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  flow.pop(0, at_ms(1));
  flow.pop(424242, at_ms(2));
  flow.end(at_ms(3));
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 3'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(FlowAttributionTest, RelabelOpenOnlyTouchesLiveFrames) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  // First lookup: folded as a miss before the relabel happens.
  const auto first = flow.push(Phase::kDnsCacheMiss, at_ms(0));
  flow.pop(first, at_ms(3));
  // Second lookup: provisional miss relabeled a hit while live.
  const auto second = flow.push(Phase::kDnsCacheMiss, at_ms(3));
  flow.relabel_open(Phase::kDnsCacheMiss, Phase::kDnsCacheHit);
  flow.pop(second, at_ms(8));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.phase_us(Phase::kDnsCacheMiss), 3'000u);
  EXPECT_EQ(flow.phase_us(Phase::kDnsCacheHit), 5'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 2'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(FlowAttributionTest, ShiftClampsToAccruedMicros) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  const auto server = flow.push(Phase::kServerProcessing, at_ms(0));
  // Ask for far more than the frame holds: the carve-out clamps so the
  // partition cannot go negative.
  flow.shift(server, 60'000'000, Phase::kBrownout, at_ms(6));
  flow.pop(server, at_ms(8));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.phase_us(Phase::kBrownout), 6'000u);
  EXPECT_EQ(flow.phase_us(Phase::kServerProcessing), 2'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTransfer), 2'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

// ---------------------------------------------------- ScopedDnsRedirect

TEST(ScopedDnsRedirectTest, RedirectsDnsPushesAndSuppressesRelabels) {
  AttributionLedger ledger;
  AttributionRecorder recorder;
  recorder.ledger = &ledger;
  FlowAttribution flow;
  flow.begin(at_ms(0));
  recorder.flow = &flow;

  {
    const obs::ScopedDnsRedirect redirect(recorder, Phase::kTunnelConnect);
    // A bootstrap lookup: the stub pushes a provisional miss and later
    // relabels it a hit. Under the redirect the push lands in the tunnel
    // phase and the relabel is swallowed.
    const auto tok = recorder.push(Phase::kDnsCacheMiss, at_ms(0));
    recorder.relabel_open(Phase::kDnsCacheMiss, Phase::kDnsCacheHit);
    recorder.pop(tok, at_ms(4));
    // Non-DNS phases pass through untouched.
    const auto tcp = recorder.push(Phase::kTcpHandshake, at_ms(4));
    recorder.pop(tcp, at_ms(6));
  }
  // Scope closed: measured-name resolution records as DNS again.
  const auto hit = recorder.push(Phase::kDnsCacheHit, at_ms(6));
  recorder.pop(hit, at_ms(9));
  flow.end(at_ms(10));

  EXPECT_EQ(flow.phase_us(Phase::kTunnelConnect), 4'000u);
  EXPECT_EQ(flow.phase_us(Phase::kTcpHandshake), 2'000u);
  EXPECT_EQ(flow.phase_us(Phase::kDnsCacheHit), 3'000u);
  EXPECT_EQ(flow.phase_us(Phase::kDnsCacheMiss), 0u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

TEST(ScopedDnsRedirectTest, NestedRedirectRestoresOuterTarget) {
  AttributionRecorder recorder;
  FlowAttribution flow;
  flow.begin(at_ms(0));
  recorder.flow = &flow;

  const obs::ScopedDnsRedirect outer(recorder, Phase::kTcpHandshake);
  {
    const obs::ScopedDnsRedirect inner(recorder, Phase::kQuicHandshake);
    EXPECT_EQ(recorder.dns_redirect, Phase::kQuicHandshake);
  }
  EXPECT_TRUE(recorder.dns_redirect_active);
  EXPECT_EQ(recorder.dns_redirect, Phase::kTcpHandshake);
  const auto tok = recorder.push(Phase::kDnsCacheMiss, at_ms(0));
  recorder.pop(tok, at_ms(5));
  flow.end(at_ms(10));
  EXPECT_EQ(flow.phase_us(Phase::kTcpHandshake), 5'000u);
  EXPECT_EQ(phase_sum(flow), flow.total_us());
}

// -------------------------------------------------- Ledger and round trip

FlowAttribution make_flow(double handshake_ms, double transfer_ms) {
  FlowAttribution flow;
  flow.begin(at_ms(0));
  const auto tok = flow.push(Phase::kTlsHandshake, at_ms(0));
  flow.pop(tok, at_ms(handshake_ms));
  flow.end(at_ms(handshake_ms + transfer_ms));
  return flow;
}

TEST(AttributionLedgerTest, MergeIsExactAndOrderIndependent) {
  AttributionLedger a, b;
  a.record("Cloudflare", "SE", "doh", make_flow(20, 30));
  a.record("Cloudflare", "SE", "doh", make_flow(10, 15));
  b.record("Cloudflare", "SE", "doh", make_flow(5, 40));
  b.record("Google", "BR", "doh", make_flow(8, 8));

  AttributionLedger ab = a;
  ab.merge(b);
  AttributionLedger ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);

  const auto it = ab.entries().find({"Cloudflare", "SE", "doh"});
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->flows, 3u);
  EXPECT_EQ(it->total_us, 120'000u);
  EXPECT_EQ(it->phases[static_cast<int>(Phase::kTlsHandshake)].us,
            35'000u);
  for (const auto& [ids, entry] : ab.entries()) {
    EXPECT_EQ(entry_phase_sum(entry), entry.total_us)
        << ab.entries().names(ids)[2];
  }
}

TEST(AttributionReportTest, CsvRoundTripPreservesExactCounts) {
  AttributionLedger ledger;
  ledger.record("Cloudflare", "SE", "doh", make_flow(20, 30));
  ledger.record("Cloudflare", "SE", "do53", make_flow(0, 25));
  ledger.record("Google", "BR", "doh", make_flow(12, 34));

  // Loader must skip provenance stamps exactly like real artifacts.
  const std::string text =
      "# dohperf-spec name=test hash=0123456789abcdef sink=attribution\n" +
      report::attribution_csv(ledger).str();
  const auto table = report::load_attribution_csv(text);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->size(), 3u);
  for (const auto& [key, cell] : *table) {
    EXPECT_TRUE(cell.consistent()) << key.transport;
    const auto it =
        ledger.entries().find({key.provider, key.country, key.transport});
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(cell.flows, it->flows);
    EXPECT_EQ(cell.total_us, it->total_us);
    for (int p = 0; p < kPhaseCount; ++p) {
      EXPECT_EQ(cell.phase_us[p], it->phases[p].us);
    }
  }

  // Transport filters partition the aggregate.
  const auto all = report::aggregate(*table);
  const auto doh = report::aggregate(*table, "doh");
  const auto do53 = report::aggregate(*table, "do53");
  EXPECT_EQ(doh.flows + do53.flows, all.flows);
  EXPECT_EQ(doh.total_us + do53.total_us, all.total_us);
  EXPECT_TRUE(all.consistent());
}

TEST(AttributionReportTest, LoaderRejectsMalformedDocuments) {
  AttributionLedger ledger;
  ledger.record("Cloudflare", "SE", "doh", make_flow(20, 30));
  const std::string good = report::attribution_csv(ledger).str();

  // Unknown phase name.
  std::string bad = good;
  bad.replace(bad.find("tls_handshake"), 13, "tls_handshakq");
  EXPECT_FALSE(report::load_attribution_csv(bad).has_value());

  // A cell whose phase rows no longer sum to its total row.
  bad = good;
  const auto pos = bad.find("tls_handshake,1,20000");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 21, "tls_handshake,1,20001");
  EXPECT_FALSE(report::load_attribution_csv(bad).has_value());

  EXPECT_FALSE(report::load_attribution_csv("not,a,csv\n1,2,3\n"));
}

TEST(AttributionReportTest, WaterfallDeltasAccountTheEndToEndDelta) {
  AttributionLedger cold, warm;
  cold.record("Cloudflare", "SE", "doh", make_flow(120, 80));
  cold.record("Cloudflare", "SE", "doh", make_flow(90, 60));
  cold.record("Cloudflare", "SE", "doh", make_flow(150, 70));
  warm.record("Cloudflare", "SE", "doh", make_flow(0, 55));
  warm.record("Cloudflare", "SE", "doh", make_flow(0, 75));

  const auto to_cell = [](const AttributionLedger& ledger) {
    const auto table =
        report::load_attribution_csv(report::attribution_csv(ledger).str());
    EXPECT_TRUE(table.has_value());
    return report::aggregate(*table);
  };
  const auto w = report::make_waterfall(to_cell(cold), to_cell(warm));
  EXPECT_TRUE(w.exact);
  double step_sum = 0.0;
  for (const auto& step : w.steps) step_sum += step.delta_ms;
  EXPECT_NEAR(step_sum, w.delta_total_ms, 1e-9);
  EXPECT_NEAR(w.delta_total_ms, w.b_total_ms - w.a_total_ms, 1e-9);
  // Warm dropped the handshake entirely: the TLS step carries the saving.
  EXPECT_LT(w.steps[static_cast<int>(Phase::kTlsHandshake)].delta_ms, 0.0);
}

// ------------------------------------------- End-to-end flow invariants

struct AttributionFlowFixture : ::testing::Test {
  world::WorldModel& world() {
    if (!world_) {
      world::WorldConfig config;
      config.seed = 4242;
      config.client_scale = 0.2;
      config.only_countries = {"SE", "BR"};
      world_ = std::make_unique<world::WorldModel>(config);
    }
    return *world_;
  }

  const proxy::ExitNode* exit_in(const std::string& iso2) {
    netsim::Rng rng = world().rng().split("attr-test-" + iso2);
    return world().brightdata().pick_exit(iso2, rng);
  }

  /// Runs the flow `launch` starts, recording into `ledger` under
  /// (Cloudflare, SE).
  template <typename Launch>
  auto recorded(AttributionLedger& ledger, Launch launch) {
    return world().run_flow([&](netsim::NetCtx& net) {
      net.attribution.ledger = &ledger;
      net.labels = {"Cloudflare", "SE"};
      return launch(net);
    });
  }

  /// Every recorded entry must be a closed partition with real time.
  static void expect_consistent(const AttributionLedger& ledger) {
    ASSERT_FALSE(ledger.empty());
    for (const auto& [ids, entry] : ledger.entries()) {
      const std::string_view transport = ledger.entries().names(ids)[2];
      EXPECT_GT(entry.flows, 0u) << transport;
      EXPECT_GT(entry.total_us, 0u) << transport;
      EXPECT_EQ(entry_phase_sum(entry), entry.total_us) << transport;
    }
  }

  static bool has_transport(const AttributionLedger& ledger,
                            const std::string& transport) {
    for (const auto& [ids, entry] : ledger.entries()) {
      if (ledger.entries().names(ids)[2] == transport) return true;
    }
    return false;
  }

  std::unique_ptr<world::WorldModel> world_;
};

TEST_F(AttributionFlowFixture, DirectFlowsSatisfyTheInvariant) {
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  auto& server = world().doh_server(0, 0);
  AttributionLedger ledger;
  const auto doh_flow = recorded(ledger, [&](netsim::NetCtx& net) {
    return measure::doh_direct(net, exit->site, exit->default_resolver,
                               server);
  });
  ASSERT_TRUE(doh_flow.ok);
  const double do53_ms = recorded(ledger, [&](netsim::NetCtx& net) {
    return measure::do53_direct(net, exit->site, exit->default_resolver,
                                dns::study_origin());
  });
  EXPECT_GT(do53_ms, 0.0);
  const auto dot_flow = recorded(ledger, [&](netsim::NetCtx& net) {
    return measure::dot_direct(net, exit->site, exit->default_resolver,
                               server);
  });
  ASSERT_TRUE(dot_flow.ok);
  const auto doq_flow = recorded(ledger, [&](netsim::NetCtx& net) {
    return measure::doq_direct(net, exit->site, exit->default_resolver,
                               server);
  });
  ASSERT_TRUE(doq_flow.ok);

  expect_consistent(ledger);
  for (const char* transport : {"doh_direct", "do53_direct", "dot", "doq"}) {
    EXPECT_TRUE(has_transport(ledger, transport)) << transport;
  }
  // The bootstrap redirect left real handshake time in each cold flow.
  const auto doh = ledger.entries().find({"Cloudflare", "SE", "doh_direct"});
  ASSERT_NE(doh, nullptr);
  EXPECT_GT(
      doh->phases[static_cast<int>(Phase::kTcpHandshake)].us, 0u);
  EXPECT_GT(
      doh->phases[static_cast<int>(Phase::kTlsHandshake)].us, 0u);
}

TEST_F(AttributionFlowFixture, ProxiedFlowsSatisfyTheInvariant) {
  const auto* exit = exit_in("BR");
  ASSERT_NE(exit, nullptr);
  AttributionLedger ledger;
  const netsim::Site& super_proxy =
      world().brightdata().nearest_super_proxy(exit->site.position).site;
  ASSERT_TRUE(recorded(ledger, [&](netsim::NetCtx& net) {
                return measure::doh_via_proxy(net, *exit, super_proxy,
                                              world().doh_server(0, 0));
              }).ok);
  ASSERT_TRUE(recorded(ledger, [&](netsim::NetCtx& net) {
                return measure::do53_via_proxy(net, *exit, super_proxy,
                                               world().authority());
              }).ok);

  expect_consistent(ledger);
  EXPECT_TRUE(has_transport(ledger, "doh"));
  EXPECT_TRUE(has_transport(ledger, "do53"));
  // The proxied DoH flow routes its bootstrap into the tunnel phase.
  const auto doh = ledger.entries().find({"Cloudflare", "SE", "doh"});
  ASSERT_NE(doh, nullptr);
  EXPECT_GT(
      doh->phases[static_cast<int>(Phase::kTunnelConnect)].us, 0u);
}

TEST_F(AttributionFlowFixture, PageLoadSatisfiesTheInvariant) {
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  web::PageLoadContext ctx;
  ctx.client = exit->site;
  ctx.default_resolver = exit->default_resolver;
  ctx.doh = &world().doh_server(0, 0);
  ctx.web_server = world().authority().site();
  // Six concurrent subflows pop frames out of order.
  constexpr int kDomains = 6;

  AttributionLedger ledger;
  for (const web::DnsMode mode :
       {web::DnsMode::kDo53, web::DnsMode::kDohCold}) {
    ASSERT_TRUE(recorded(ledger, [&](netsim::NetCtx& net) {
                  return web::load_page(net, ctx, kDomains, mode);
                }).ok);
  }
  expect_consistent(ledger);
  EXPECT_TRUE(has_transport(ledger, "pageload"));
}

TEST_F(AttributionFlowFixture, BootstrapIsChargedToThePhaseItGates) {
  // The bootstrap step alone inside a flow root: the lookup is all the
  // flow does, so its elapsed time is the flow's total. The DNS time goes
  // to `gates`; only the resolver's own processing keeps its phase.
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  for (const Phase gates : {Phase::kTcpHandshake, Phase::kQuicHandshake,
                            Phase::kTunnelConnect}) {
    AttributionLedger ledger;
    const resolver::StubResult boot = recorded(
        ledger, [&](netsim::NetCtx& net) -> netsim::Task<resolver::StubResult> {
          const auto flow = net.flow({.transport = "bootstrap"});
          co_return co_await resolver::bootstrap(
              net, exit->site, *exit->default_resolver,
              world().doh_server(0, 0), gates);
        });
    ASSERT_TRUE(boot.ok()) << obs::phase_name(gates);
    expect_consistent(ledger);
    const AttributionEntry& entry =
        ledger.entries().at({"Cloudflare", "SE", "bootstrap"});
    const auto us = [&](Phase phase) {
      return entry.phases[static_cast<std::size_t>(phase)].us;
    };
    EXPECT_EQ(entry.total_us,
              static_cast<std::uint64_t>(std::llround(boot.elapsed_ms * 1e3)))
        << obs::phase_name(gates);
    EXPECT_GT(us(gates), 0u) << obs::phase_name(gates);
    EXPECT_EQ(us(gates) + us(Phase::kServerProcessing), entry.total_us)
        << obs::phase_name(gates);
    EXPECT_EQ(us(Phase::kDnsCacheHit), 0u) << obs::phase_name(gates);
    EXPECT_EQ(us(Phase::kDnsCacheMiss), 0u) << obs::phase_name(gates);
  }
}

TEST_F(AttributionFlowFixture, WarmPathsClassifyPoolOutcomesExactly) {
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  resolver::SharedCacheConfig cache_config;
  cache_config.enabled = true;
  const resolver::SharedCacheModel model(cache_config);

  AttributionLedger ledger;
  {
    measure::WarmDohParams params;
    params.vantage = exit->site;
    params.default_resolver = exit->default_resolver;
    params.doh = &world().doh_server(0, 0);
    params.cache = &model;
    params.reuse.enabled = true;
    params.reuse.queries_per_session = 8;
    ASSERT_TRUE(recorded(ledger, [&](netsim::NetCtx& net) {
                  return measure::doh_warm_path(net, params);
                }).ok);
  }
  {
    measure::WarmDo53Params params;
    params.vantage = exit->site;
    params.resolver = exit->default_resolver;
    params.cache = &model;
    params.reuse.enabled = true;
    params.reuse.queries_per_session = 8;
    ASSERT_TRUE(recorded(ledger, [&](netsim::NetCtx& net) {
                  return measure::do53_warm_path(net, params);
                }).ok);
  }

  expect_consistent(ledger);
  // Query 0 lands in its own cell (the cold start), follow-ups in the
  // steady-state cell; the Do53 path has no connections to warm.
  const auto first =
      ledger.entries().find({"Cloudflare", "SE", "doh_warm_first"});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->flows, 1u);
  EXPECT_GT(
      first->phases[static_cast<int>(Phase::kTlsHandshake)].us, 0u);
  const auto rest = ledger.entries().find({"Cloudflare", "SE", "doh_warm"});
  ASSERT_NE(rest, nullptr);
  EXPECT_GT(rest->flows, 1u);
  // Pooled reuse: no full TLS handshake in the steady state.
  EXPECT_EQ(
      rest->phases[static_cast<int>(Phase::kTlsHandshake)].us, 0u);
  EXPECT_TRUE(has_transport(ledger, "do53_warm_first"));
}

TEST_F(AttributionFlowFixture, RetryHeavyFaultFlowsStayExact) {
  // A blackout severing the client <-> PoP link: the SYN retransmit
  // schedule runs dry and the flow fails — the failed flow's partition
  // must still close, with the waiting booked as retry backoff.
  const auto* exit = exit_in("SE");
  ASSERT_NE(exit, nullptr);
  netsim::FaultPlan plan;
  netsim::BlackoutEpisode episode;
  episode.window = {netsim::Duration::zero(), netsim::from_ms(600'000.0)};
  episode.a = exit->site.position;
  episode.a_radius_miles = 1.0;
  episode.b = world().doh_server(0, 0).site().position;
  episode.b_radius_miles = 1.0;
  plan.add_blackout(episode);

  AttributionLedger ledger;
  EXPECT_FALSE(recorded(ledger, [&](netsim::NetCtx& net) {
                 net.faults = &plan;
                 net.fault_epoch = net.sim.now();
                 return measure::doh_direct(
                     net, exit->site, exit->default_resolver,
                     world().doh_server(0, 0));
               }).ok);

  expect_consistent(ledger);
  const auto it = ledger.entries().find({"Cloudflare", "SE", "doh_direct"});
  ASSERT_NE(it, nullptr);
  EXPECT_GT(
      it->phases[static_cast<int>(Phase::kRetryBackoff)].us, 0u);
}

TEST_F(AttributionFlowFixture, CampaignLedgerClosesUnderFaults) {
  // Retry-heavy campaign: brownouts inflate server time (the kBrownout
  // carve-out) and loss spikes charge retransmit timers. Every cell the
  // campaign aggregates must still be a closed partition.
  world::WorldConfig wconfig;
  wconfig.seed = 7;
  wconfig.client_scale = 0.1;
  wconfig.only_countries = {"SE", "BR"};
  world::WorldModel world(wconfig);
  measure::CampaignConfig config;
  config.atlas_measurements_per_country = 2;
  config.faults.brownout_probability = 0.5;
  config.faults.brownout_multiplier = 10.0;
  config.faults.brownout_duration = netsim::from_ms(60'000.0);
  config.faults.loss_spike_probability = 0.5;
  config.faults.spike_extra_loss = 0.5;
  config.faults.spike_radius_miles = netsim::kAnywhereMiles;
  config.faults.spike_duration = netsim::from_ms(60'000.0);
  measure::Campaign campaign(world, config);
  (void)campaign.run();

  const AttributionLedger& ledger = campaign.telemetry().attribution;
  ASSERT_FALSE(ledger.empty());
  std::uint64_t brownout_us = 0, retry_us = 0;
  for (const auto& [ids, entry] : ledger.entries()) {
    const auto [provider, country, transport] = ledger.entries().names(ids);
    EXPECT_EQ(entry_phase_sum(entry), entry.total_us)
        << provider << "/" << country << "/" << transport;
    brownout_us += entry.phases[static_cast<int>(Phase::kBrownout)].us;
    retry_us += entry.phases[static_cast<int>(Phase::kRetryBackoff)].us;
  }
  EXPECT_GT(brownout_us, 0u);
  EXPECT_GT(retry_us, 0u);
  // The CSV of a real campaign ledger round-trips losslessly.
  const auto table = report::load_attribution_csv(
      report::attribution_csv(ledger).str());
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->size(), ledger.entries().size());
  EXPECT_TRUE(report::aggregate(*table).consistent());
}

}  // namespace
}  // namespace dohperf
