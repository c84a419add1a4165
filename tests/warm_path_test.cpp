// Tests for the warm-path stack: the client ConnectionPool's pricing
// decisions, the stateless SharedCacheModel, and the end-to-end warm
// measurement flows (per-query indices, reuse accounting, determinism).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "client/connection_pool.h"
#include "measure/warm.h"
#include "netsim/random.h"
#include "netsim/time.h"
#include "obs/metrics.h"
#include "resolver/shared_cache.h"
#include "world/world_model.h"

namespace dohperf {
namespace {

using client::Acquire;
using client::ConnectionPool;
using client::PoolConfig;
using netsim::SimTime;

SimTime at_ms(double ms) { return SimTime{} + netsim::from_ms(ms); }

// ------------------------------------------------------- ConnectionPool

TEST(ConnectionPoolTest, ColdThenReuseWithinIdleWindow) {
  ConnectionPool pool;
  EXPECT_EQ(pool.acquire("dns.example", at_ms(0)), Acquire::kCold);
  pool.established("dns.example", at_ms(100));
  EXPECT_EQ(pool.queries_on_connection("dns.example"), 0);

  EXPECT_EQ(pool.acquire("dns.example", at_ms(150)), Acquire::kReuse);
  pool.touch("dns.example", at_ms(160));
  EXPECT_EQ(pool.queries_on_connection("dns.example"), 1);
  EXPECT_EQ(pool.acquire("dns.example", at_ms(200)), Acquire::kReuse);

  EXPECT_EQ(pool.stats().cold, 1u);
  EXPECT_EQ(pool.stats().reused, 2u);
  EXPECT_EQ(pool.stats().resumed, 0u);
  EXPECT_EQ(pool.stats().expired, 0u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ConnectionPoolTest, IdleExpiryResumesViaTicket) {
  PoolConfig config;
  config.idle_timeout = std::chrono::seconds(10);
  ConnectionPool pool(config);
  EXPECT_EQ(pool.acquire("dns.example", at_ms(0)), Acquire::kCold);
  pool.established("dns.example", at_ms(100));
  pool.touch("dns.example", at_ms(150));

  // 10 s + 1 ms after the last query: the connection is dead, but the
  // ticket issued at establishment is still fresh.
  EXPECT_EQ(pool.acquire("dns.example", at_ms(10151)), Acquire::kResume);
  EXPECT_EQ(pool.stats().expired, 1u);
  EXPECT_EQ(pool.stats().resumed, 1u);
  // A resumed handshake re-establishes and restarts the query count.
  pool.established("dns.example", at_ms(10200));
  EXPECT_EQ(pool.queries_on_connection("dns.example"), 0);
  EXPECT_EQ(pool.acquire("dns.example", at_ms(10250)), Acquire::kReuse);
}

TEST(ConnectionPoolTest, ExpiredTicketFallsBackToCold) {
  PoolConfig config;
  config.idle_timeout = std::chrono::seconds(10);
  config.ticket_lifetime = std::chrono::seconds(60);
  ConnectionPool pool(config);
  (void)pool.acquire("dns.example", at_ms(0));
  pool.established("dns.example", at_ms(0));

  // Past both the idle timeout and the ticket lifetime: full handshake.
  EXPECT_EQ(pool.acquire("dns.example", at_ms(61'000)), Acquire::kCold);
  EXPECT_EQ(pool.stats().cold, 2u);
  EXPECT_EQ(pool.stats().resumed, 0u);
}

TEST(ConnectionPoolTest, NoTicketsMeansEveryReconnectIsCold) {
  PoolConfig config;
  config.idle_timeout = std::chrono::seconds(10);
  config.session_tickets = false;
  ConnectionPool pool(config);
  (void)pool.acquire("dns.example", at_ms(0));
  pool.established("dns.example", at_ms(0));
  EXPECT_EQ(pool.acquire("dns.example", at_ms(20'000)), Acquire::kCold);
}

TEST(ConnectionPoolTest, MaxQueriesForcesReconnect) {
  PoolConfig config;
  config.max_queries_per_connection = 2;
  ConnectionPool pool(config);
  (void)pool.acquire("dns.example", at_ms(0));
  pool.established("dns.example", at_ms(0));
  (void)pool.acquire("dns.example", at_ms(10));
  pool.touch("dns.example", at_ms(10));
  (void)pool.acquire("dns.example", at_ms(20));
  pool.touch("dns.example", at_ms(20));

  // Budget exhausted but not idle: reconnect via ticket, and the expired
  // counter (connections found *dead*) must not move.
  EXPECT_EQ(pool.acquire("dns.example", at_ms(30)), Acquire::kResume);
  EXPECT_EQ(pool.stats().expired, 0u);
}

TEST(ConnectionPoolTest, LruEvictionDropsStalestEndpoint) {
  PoolConfig config;
  config.max_entries = 2;
  ConnectionPool pool(config);
  (void)pool.acquire("a.example", at_ms(0));
  pool.established("a.example", at_ms(0));
  (void)pool.acquire("b.example", at_ms(100));
  pool.established("b.example", at_ms(100));
  ASSERT_EQ(pool.size(), 2u);

  // A third endpoint pushes out a.example (stalest last_used)...
  EXPECT_EQ(pool.acquire("c.example", at_ms(200)), Acquire::kCold);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.stats().evictions, 1u);
  // ...so coming back to it starts from scratch (ticket gone too).
  EXPECT_EQ(pool.acquire("a.example", at_ms(300)), Acquire::kCold);
  EXPECT_EQ(pool.stats().evictions, 2u);  // b.example paid this time
}

// ------------------------------------------------------ SharedCacheModel

resolver::SharedCacheConfig model_config() {
  resolver::SharedCacheConfig config;
  config.enabled = true;
  config.catalog_size = 1000;
  config.zipf_exponent = 1.0;
  config.queries_per_user_per_hour = 8.0;
  config.ttl_s = 60.0;
  return config;
}

TEST(SharedCacheModelTest, HitProbabilityMonotoneInPopulationAndRank) {
  const resolver::SharedCacheModel model(model_config());
  double prev = 0.0;
  for (const double population : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    const double h = model.hit_probability(0, population);
    EXPECT_GT(h, prev);
    EXPECT_LT(h, 1.0);
    prev = h;
  }
  // Popularity decays with rank, so the hit probability must too.
  for (std::size_t rank = 1; rank < 10; ++rank) {
    EXPECT_LT(model.hit_probability(rank, 1e5),
              model.hit_probability(rank - 1, 1e5));
  }
}

TEST(SharedCacheModelTest, ExpectedHitRateBoundedAndMonotone) {
  const resolver::SharedCacheModel model(model_config());
  double prev = 0.0;
  for (const double population : {1e2, 1e3, 1e4, 1e5, 1e6, 1e7}) {
    const double rate = model.expected_hit_rate(population);
    EXPECT_GT(rate, 0.0);
    EXPECT_LT(rate, 1.0);
    EXPECT_GE(rate, prev);
    prev = rate;
  }
}

TEST(SharedCacheModelTest, CentralizedBeatsDistributedShare) {
  // The paper's asymmetry: one national cache sees all queries, an ISP
  // cache only its share — so the centralized hit rate must dominate.
  const resolver::SharedCacheConfig config = model_config();
  const resolver::SharedCacheModel model(config);
  const double population = 1e6;
  EXPECT_GT(model.expected_hit_rate(population),
            model.expected_hit_rate(population * config.isp_share));
}

TEST(SharedCacheModelTest, SampleIsDeterministic) {
  const resolver::SharedCacheModel model(model_config());
  netsim::Rng a(11);
  netsim::Rng b(11);
  for (int i = 0; i < 100; ++i) {
    const auto la = model.sample(a, 1e5);
    const auto lb = model.sample(b, 1e5);
    EXPECT_EQ(la.rank, lb.rank);
    EXPECT_EQ(la.hit, lb.hit);
    EXPECT_DOUBLE_EQ(la.age_s, lb.age_s);
    EXPECT_GE(la.age_s, 0.0);
    EXPECT_LT(la.age_s, model.config().ttl_s);
  }
}

TEST(SharedCacheModelTest, SampleConsumesFixedDrawsRegardlessOfOutcome) {
  // Shard determinism depends on every sample having the same RNG
  // footprint: a near-certain hit and a near-certain miss must leave the
  // stream in the same position.
  const resolver::SharedCacheModel model(model_config());
  netsim::Rng hit_heavy(23);
  netsim::Rng miss_heavy(23);
  for (int i = 0; i < 50; ++i) {
    (void)model.sample(hit_heavy, 1e9);
    (void)model.sample(miss_heavy, 1.0);
  }
  EXPECT_DOUBLE_EQ(hit_heavy.uniform(), miss_heavy.uniform());
}

// ----------------------------------------------------------- warm flows

struct WarmFlowFixture : ::testing::Test {
  world::WorldModel& world() {
    if (!world_) {
      world::WorldConfig config;
      config.seed = 1234;
      config.client_scale = 0.2;
      config.only_countries = {"SE", "US"};
      world_ = std::make_unique<world::WorldModel>(config);
    }
    return *world_;
  }

  measure::WarmDohParams doh_params(
      const resolver::SharedCacheModel* model) {
    world::WorldModel& w = world();
    netsim::Rng pick = w.rng().split("warm-pick");
    const proxy::ExitNode* exit = w.brightdata().pick_exit("SE", pick);
    EXPECT_NE(exit, nullptr);
    measure::WarmDohParams params;
    params.vantage = exit->site;
    params.default_resolver = exit->default_resolver;
    params.doh = &w.doh_server(0, 0);
    params.origin = w.origin();
    params.cache = model;
    params.population = 1e6;
    params.reuse.enabled = true;
    params.reuse.queries_per_session = 8;
    return params;
  }

  std::unique_ptr<world::WorldModel> world_;
};

TEST_F(WarmFlowFixture, DohWarmSessionRecordsIndicesAndReuse) {
  const resolver::SharedCacheModel model(model_config());
  obs::Metrics metrics;
  const measure::WarmPathObservation obs =
      world().run_flow([&](netsim::NetCtx& net) {
        net.metrics = &metrics;
        return measure::doh_warm_path(net, doh_params(&model));
      });

  ASSERT_TRUE(obs.ok);
  ASSERT_EQ(obs.queries.size(), 8u);
  for (std::size_t i = 0; i < obs.queries.size(); ++i) {
    const measure::WarmQueryObservation& q = obs.queries[i];
    EXPECT_EQ(q.query_index, static_cast<int>(i));
    EXPECT_TRUE(q.valid());
    if (q.stub_hit) {
      EXPECT_DOUBLE_EQ(q.ms, 0.0);
    }
  }
  // Query 0 always prices the cold start; nothing to reuse yet.
  EXPECT_FALSE(obs.queries[0].connection_reused);
  EXPECT_FALSE(obs.queries[0].session_resumed);
  EXPECT_FALSE(obs.queries[0].stub_hit);
  // With zero think time the connection never idles out: every
  // non-stub-hit follow-up rides the pooled connection.
  for (std::size_t i = 1; i < obs.queries.size(); ++i) {
    if (!obs.queries[i].stub_hit) {
      EXPECT_TRUE(obs.queries[i].connection_reused) << i;
      EXPECT_LT(obs.queries[i].ms, obs.queries[0].ms) << i;
    }
  }
  EXPECT_EQ(obs.pool.cold, 1u);
  EXPECT_GT(obs.pool.reused, 0u);
  EXPECT_EQ(metrics.counters.pool_cold + metrics.counters.pool_reuses, 0u)
      << "flows do not write pool counters; the campaign merges them";
  EXPECT_EQ(metrics.counters.shared_cache_hits +
                metrics.counters.shared_cache_misses +
                metrics.counters.stub_cache_hits,
            8u);
}

TEST_F(WarmFlowFixture, ThinkTimePastIdleTimeoutExercisesResumption) {
  const resolver::SharedCacheModel model(model_config());
  obs::Metrics metrics;
  measure::WarmDohParams params = doh_params(&model);
  // Gaps average 50 ms against a 1 ms idle timeout: every reconnect
  // finds the connection dead but holds a fresh ticket.
  params.reuse.think_time = netsim::from_ms(50.0);
  params.reuse.pool.idle_timeout = netsim::from_ms(1.0);
  const measure::WarmPathObservation obs =
      world().run_flow([&](netsim::NetCtx& net) {
        net.metrics = &metrics;
        return measure::doh_warm_path(net, std::move(params));
      });

  ASSERT_TRUE(obs.ok);
  EXPECT_GT(obs.pool.resumed, 0u);
  EXPECT_GT(obs.pool.expired, 0u);
  EXPECT_EQ(metrics.counters.tls_resumptions, obs.pool.resumed);
  bool any_resumed = false;
  for (const auto& q : obs.queries) any_resumed |= q.session_resumed;
  EXPECT_TRUE(any_resumed);
}

TEST_F(WarmFlowFixture, Do53WarmSessionHitsDistributedCache) {
  const resolver::SharedCacheModel model(model_config());
  world::WorldModel& w = world();
  netsim::Rng pick = w.rng().split("warm-pick");
  const proxy::ExitNode* exit = w.brightdata().pick_exit("SE", pick);
  ASSERT_NE(exit, nullptr);

  measure::WarmDo53Params params;
  params.vantage = exit->site;
  params.resolver = exit->default_resolver;
  params.origin = w.origin();
  params.cache = &model;
  params.population = 1e6 * model.config().isp_share;
  params.reuse.enabled = true;
  params.reuse.queries_per_session = 8;

  const measure::WarmPathObservation obs = w.run_flow(
      [&](netsim::NetCtx& net) {
        return measure::do53_warm_path(net, std::move(params));
      });

  ASSERT_TRUE(obs.ok);
  ASSERT_EQ(obs.queries.size(), 8u);
  int shared = 0, stub = 0;
  for (const auto& q : obs.queries) {
    EXPECT_TRUE(q.valid());
    shared += q.shared_hit ? 1 : 0;
    stub += q.stub_hit ? 1 : 0;
  }
  // 50k users behind the ISP resolver: the head of the catalog is warm.
  EXPECT_GT(shared + stub, 0);
  // No connections on UDP: the pool never moves.
  EXPECT_EQ(obs.pool.cold + obs.pool.reused + obs.pool.resumed, 0u);
}

TEST_F(WarmFlowFixture, WarmFlowsAreDeterministic) {
  const resolver::SharedCacheModel model(model_config());
  const auto run = [&] {
    world_.reset();  // fresh world, same seed
    const measure::WarmPathObservation obs =
        world().run_flow([&](netsim::NetCtx& net) {
          return measure::doh_warm_path(net, doh_params(&model));
        });
    std::vector<double> ms;
    for (const auto& q : obs.queries) ms.push_back(q.ms);
    return ms;
  };
  const std::vector<double> first = run();
  const std::vector<double> second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
  }
}

}  // namespace
}  // namespace dohperf
