// Tests for the authoritative zone and the resolver cache.
#include <gtest/gtest.h>

#include <chrono>

#include "dns/cache.h"
#include "dns/errors.h"
#include "dns/zone.h"
#include "netsim/random.h"
#include "netsim/time.h"

namespace dohperf::dns {
namespace {

using netsim::SimTime;

Zone study_zone() {
  return Zone::make_study_zone(0xCF000001, 60);
}

TEST(ZoneTest, StudyZoneAnswersWildcardQueries) {
  const Zone zone = study_zone();
  const auto result = zone.lookup(
      DomainName::parse("f47ac10b-58cc-4372.a.com"), RecordType::kA);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].name.to_string(), "f47ac10b-58cc-4372.a.com");
  EXPECT_EQ(std::get<ARecord>(result.answers[0].rdata).address, 0xCF000001u);
  EXPECT_EQ(result.answers[0].ttl, 60u);
}

TEST(ZoneTest, EveryUniqueSubdomainGetsAnAnswer) {
  const Zone zone = study_zone();
  for (const char* label : {"aaa", "bbb-ccc", "1234", "x"}) {
    const auto result = zone.lookup(
        DomainName::parse("a.com").with_subdomain(label), RecordType::kA);
    EXPECT_EQ(result.rcode, Rcode::kNoError) << label;
    EXPECT_EQ(result.answers.size(), 1u) << label;
  }
}

TEST(ZoneTest, ApexRecords) {
  const Zone zone = study_zone();
  const auto a = zone.lookup(DomainName::parse("a.com"), RecordType::kA);
  EXPECT_EQ(a.answers.size(), 1u);
  const auto ns = zone.lookup(DomainName::parse("a.com"), RecordType::kNs);
  ASSERT_EQ(ns.answers.size(), 1u);
  EXPECT_EQ(std::get<NsRecord>(ns.answers[0].rdata).nameserver.to_string(),
            "ns1.a.com");
}

TEST(ZoneTest, ExplicitRecordBeatsWildcard) {
  Zone zone = study_zone();
  ResourceRecord special;
  special.name = DomainName::parse("www.a.com");
  special.ttl = 300;
  special.rdata = ARecord{0x01020304};
  zone.add(special);
  const auto result =
      zone.lookup(DomainName::parse("www.a.com"), RecordType::kA);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(result.answers[0].rdata).address, 0x01020304u);
}

TEST(ZoneTest, NodataForWildcardedNameOfOtherType) {
  const Zone zone = study_zone();
  const auto result =
      zone.lookup(DomainName::parse("xyz.a.com"), RecordType::kTxt);
  EXPECT_EQ(result.rcode, Rcode::kNoError);  // NODATA, not NXDOMAIN
  EXPECT_TRUE(result.answers.empty());
  ASSERT_EQ(result.authorities.size(), 1u);
  EXPECT_EQ(result.authorities[0].type(), RecordType::kSoa);
}

TEST(ZoneTest, RefusesOutOfZoneQueries) {
  const Zone zone = study_zone();
  const auto result =
      zone.lookup(DomainName::parse("example.org"), RecordType::kA);
  EXPECT_EQ(result.rcode, Rcode::kRefused);
  EXPECT_TRUE(result.answers.empty());
}

TEST(ZoneTest, RejectsOutOfZoneRecords) {
  Zone zone = study_zone();
  ResourceRecord rr;
  rr.name = DomainName::parse("elsewhere.org");
  rr.rdata = ARecord{1};
  EXPECT_THROW(zone.add(rr), NameError);
}

TEST(ZoneTest, RecordCount) {
  const Zone zone = study_zone();
  // NS + ns1 A + apex A + wildcard A.
  EXPECT_EQ(zone.record_count(), 4u);
}

TEST(ZoneTest, SoaFields) {
  const Zone zone = study_zone();
  EXPECT_EQ(zone.soa().mname.to_string(), "ns1.a.com");
  EXPECT_EQ(zone.soa().minimum, 60u);
  EXPECT_EQ(zone.origin().to_string(), "a.com");
}

// Property sweep: any syntactically valid single-label subdomain of the
// study zone gets exactly one wildcard A answer.
class ZoneWildcardProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZoneWildcardProperty, RandomLabelsAreAnswered) {
  const Zone zone = study_zone();
  netsim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  static constexpr char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  for (int i = 0; i < 50; ++i) {
    const int len = static_cast<int>(rng.uniform_int(1, 63));
    std::string label;
    for (int j = 0; j < len; ++j) {
      label.push_back(alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)]);
    }
    const auto result = zone.lookup(
        DomainName::parse("a.com").with_subdomain(label), RecordType::kA);
    EXPECT_EQ(result.rcode, Rcode::kNoError) << label;
    ASSERT_EQ(result.answers.size(), 1u) << label;
    EXPECT_EQ(result.answers[0].ttl, 60u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneWildcardProperty,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------- cache

std::vector<ResourceRecord> records_with_ttl(std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = DomainName::parse("host.a.com");
  rr.ttl = ttl;
  rr.rdata = ARecord{0x0A000001};
  return {rr};
}

TEST(CacheTest, MissOnEmpty) {
  Cache cache;
  EXPECT_EQ(cache.lookup(SimTime{}, DomainName::parse("host.a.com"),
                         RecordType::kA),
            std::nullopt);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, HitAfterInsert) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  const auto hit = cache.lookup(SimTime{}, name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheTest, TtlDecaysWithTime) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  const auto later = SimTime{} + std::chrono::seconds(25);
  const auto hit = cache.lookup(later, name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].ttl, 35u);
}

TEST(CacheTest, ExpiresAfterTtl) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  const auto after = SimTime{} + std::chrono::seconds(61);
  EXPECT_EQ(cache.lookup(after, name, RecordType::kA), std::nullopt);
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, ExactTtlBoundaryExpires) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  EXPECT_EQ(cache.lookup(SimTime{} + std::chrono::seconds(60), name,
                         RecordType::kA),
            std::nullopt);
}

TEST(CacheTest, MinimumTtlOfSetGoverns) {
  Cache cache;
  auto records = records_with_ttl(60);
  auto more = records_with_ttl(10);
  records.push_back(more[0]);
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records);
  EXPECT_EQ(cache.lookup(SimTime{} + std::chrono::seconds(11), name,
                         RecordType::kA),
            std::nullopt);
}

TEST(CacheTest, KeyedByType) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  EXPECT_EQ(cache.lookup(SimTime{}, name, RecordType::kAaaa), std::nullopt);
}

TEST(CacheTest, CaseInsensitiveKeys) {
  Cache cache;
  cache.insert(SimTime{}, DomainName::parse("Host.A.Com"), RecordType::kA,
               records_with_ttl(60));
  EXPECT_TRUE(cache.lookup(SimTime{}, DomainName::parse("host.a.com"),
                           RecordType::kA)
                  .has_value());
}

TEST(CacheTest, EmptyInsertIgnored) {
  Cache cache;
  cache.insert(SimTime{}, DomainName::parse("host.a.com"), RecordType::kA,
               {});
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, PurgeRemovesOnlyExpired) {
  Cache cache;
  cache.insert(SimTime{}, DomainName::parse("x.a.com"), RecordType::kA,
               records_with_ttl(10));
  cache.insert(SimTime{}, DomainName::parse("y.a.com"), RecordType::kA,
               records_with_ttl(100));
  EXPECT_EQ(cache.purge(SimTime{} + std::chrono::seconds(50)), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheTest, CapacityPressureDropsInserts) {
  Cache cache(2);
  cache.insert(SimTime{}, DomainName::parse("x.a.com"), RecordType::kA,
               records_with_ttl(1000));
  cache.insert(SimTime{}, DomainName::parse("y.a.com"), RecordType::kA,
               records_with_ttl(1000));
  cache.insert(SimTime{}, DomainName::parse("z.a.com"), RecordType::kA,
               records_with_ttl(1000));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(SimTime{}, DomainName::parse("z.a.com"),
                         RecordType::kA),
            std::nullopt);
}

TEST(CacheTest, RefreshAtCapacityUpdatesExistingKey) {
  // Regression: the capacity gate must only block genuinely new keys. A
  // full cache used to drop TTL refreshes of keys it already held
  // (size was checked before key existence).
  Cache cache(2);
  const auto name = DomainName::parse("x.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(10));
  cache.insert(SimTime{}, DomainName::parse("y.a.com"), RecordType::kA,
               records_with_ttl(1000));
  ASSERT_EQ(cache.size(), 2u);

  // Refresh x at full capacity with a longer TTL; nothing is expired, so
  // the old code dropped this insert entirely.
  const auto later = SimTime{} + std::chrono::seconds(5);
  cache.insert(later, name, RecordType::kA, records_with_ttl(60));
  EXPECT_EQ(cache.size(), 2u);
  const auto hit =
      cache.lookup(later + std::chrono::seconds(30), name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());  // 35 s after refresh: alive
  EXPECT_EQ((*hit)[0].ttl, 30u);
  // New keys are still refused at capacity.
  cache.insert(later, DomainName::parse("z.a.com"), RecordType::kA,
               records_with_ttl(1000));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CacheTest, SubSecondAgeDoesNotDecayTtl) {
  // 999 ms is zero whole seconds: the TTL must not decay, and the
  // clamped unsigned arithmetic must not wrap.
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  const auto hit = cache.lookup(SimTime{} + std::chrono::milliseconds(999),
                                name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].ttl, 60u);
}

TEST(CacheTest, LookupJustBeforeExpiryYieldsDecayedTtl) {
  // now == expires_at - 1 ms: still a hit, with 59 whole seconds of age
  // decayed off the 60 s TTL.
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  const auto just_before = SimTime{} + std::chrono::seconds(60) -
                           std::chrono::milliseconds(1);
  const auto hit = cache.lookup(just_before, name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].ttl, 1u);
  // And exactly at expires_at it is gone (half-open lifetime).
  EXPECT_EQ(cache.lookup(SimTime{} + std::chrono::seconds(60), name,
                         RecordType::kA),
            std::nullopt);
}

TEST(CacheTest, ClearResetsStats) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  (void)cache.lookup(SimTime{}, name, RecordType::kA);
  (void)cache.lookup(SimTime{}, DomainName::parse("other.a.com"),
                     RecordType::kA);
  ASSERT_EQ(cache.stats().hits, 1u);
  ASSERT_EQ(cache.stats().misses, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().expirations, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

TEST(CacheTest, HitRateIsDerivedAndDivisionSafe) {
  Cache cache;
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);  // 0/0 guarded
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(60));
  (void)cache.lookup(SimTime{}, name, RecordType::kA);
  (void)cache.lookup(SimTime{}, name, RecordType::kA);
  (void)cache.lookup(SimTime{}, DomainName::parse("other.a.com"),
                     RecordType::kA);
  (void)cache.lookup(SimTime{}, DomainName::parse("more.a.com"),
                     RecordType::kA);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(CacheTest, AmortizedSweepFiresOnSmallCaches) {
  // Regression: the sweep cadence used to be gated on size() >= 256, so
  // a cache that stayed small (entries expiring between inserts, or a
  // tight max_entries) never purged and expired entries lingered until
  // an explicit purge. The cadence is now pure insert count.
  Cache cache;
  const auto name = DomainName::parse("short.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(1));
  // 256 more inserts, all re-targeting one key so size() stays tiny; by
  // insert 256 the sweep must have fired and evicted the expired entry.
  const auto later = SimTime{} + std::chrono::seconds(5);
  const auto refresh = DomainName::parse("churn.a.com");
  for (int i = 0; i < 256; ++i) {
    cache.insert(later, refresh, RecordType::kA, records_with_ttl(1000));
  }
  EXPECT_EQ(cache.size(), 1u);  // only churn.a.com survives
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(CacheTest, ExplicitPurgeRestartsSweepCadence) {
  // Regression: purge() now resets the insert counter, so an explicit
  // (or pressure-relief) sweep postpones the next amortized one by a
  // full interval instead of double-sweeping back to back.
  Cache cache;
  const auto doomed = DomainName::parse("doomed.a.com");
  // 253 live inserts plus one short-TTL victim: counter at 254.
  for (int i = 0; i < 253; ++i) {
    cache.insert(SimTime{},
                 DomainName::parse("n" + std::to_string(i) + ".a.com"),
                 RecordType::kA, records_with_ttl(1000));
  }
  cache.insert(SimTime{}, doomed, RecordType::kA, records_with_ttl(1));
  ASSERT_EQ(cache.stats().expirations, 0u);

  // Explicit purge at t=5 s removes the victim and restarts the clock.
  const auto later = SimTime{} + std::chrono::seconds(5);
  EXPECT_EQ(cache.purge(later), 1u);

  // Two more inserts. Without the reset the counter would hit 256 on the
  // second one (at t=10 s) and sweep fresh.a.com (expired at t=6 s) out;
  // with the reset the counter is only at 2, so the expired entry is
  // still resident and only the explicit purge has expired anything.
  cache.insert(later, DomainName::parse("fresh.a.com"), RecordType::kA,
               records_with_ttl(1));
  const auto even_later = SimTime{} + std::chrono::seconds(10);
  cache.insert(even_later, DomainName::parse("last.a.com"), RecordType::kA,
               records_with_ttl(1000));
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 255u);  // 253 live + fresh (dead, unswept) + last
}

TEST(CacheTest, OverwriteRefreshesEntry) {
  Cache cache;
  const auto name = DomainName::parse("host.a.com");
  cache.insert(SimTime{}, name, RecordType::kA, records_with_ttl(10));
  const auto later = SimTime{} + std::chrono::seconds(8);
  cache.insert(later, name, RecordType::kA, records_with_ttl(60));
  const auto hit =
      cache.lookup(later + std::chrono::seconds(30), name, RecordType::kA);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].ttl, 30u);
}

}  // namespace
}  // namespace dohperf::dns
