// Plan cache unit coverage: SQL canonicalization + fingerprinting (the
// query-class key), the cache's exact LRU (recency eviction, byte
// budget, whole-cache capacity, version purge), Optimizer cache hits
// under the one key over the exact SQL bytes (flag, identical plans,
// EXPLAIN marker, recorder field; an exact repeat hits the same entry, a
// respelling prepares cold once and then hits its own entry, the byte
// check turns a forced key collision into a miss, one count per prepare
// even for SQL that does not lex), and the DDL-invalidation guarantee —
// a catalog bump must make every previously cached plan unservable.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cache/fingerprint.h"
#include "cache/plan_cache.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

// ---------------------------------------------------------------------------
// Canonicalization + fingerprint
// ---------------------------------------------------------------------------

TEST(CanonicalizeSqlTest, WhitespaceCaseAndCommentsInsensitive) {
  ASSERT_OK_AND_ASSIGN(cache::CanonicalSql a,
                       cache::CanonicalizeSql(
                           "select sno from supplier where status = 'A'"));
  ASSERT_OK_AND_ASSIGN(
      cache::CanonicalSql b,
      cache::CanonicalizeSql("SELECT   Sno\n  FROM supplier -- comment\n"
                             "WHERE STATUS = 'A'"));
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.text, "SELECT SNO FROM SUPPLIER WHERE STATUS = 'A'");
}

TEST(CanonicalizeSqlTest, ShapeParameterizesLiteralsButNotHostVars) {
  ASSERT_OK_AND_ASSIGN(
      cache::CanonicalSql c,
      cache::CanonicalizeSql(
          "SELECT SNO FROM SUPPLIER WHERE BUDGET > 100 AND SNO = :S"));
  EXPECT_EQ(c.num_literals, 1u);
  EXPECT_EQ(c.shape, "SELECT SNO FROM SUPPLIER WHERE BUDGET > ? AND SNO = :S");
  EXPECT_NE(c.text, c.shape);
}

TEST(CanonicalizeSqlTest, StringLiteralDistinctFromIdentifier) {
  // 'A' must not canonicalize to the same text as the identifier A.
  ASSERT_OK_AND_ASSIGN(cache::CanonicalSql quoted,
                       cache::CanonicalizeSql("SELECT 'A' FROM T"));
  ASSERT_OK_AND_ASSIGN(cache::CanonicalSql bare,
                       cache::CanonicalizeSql("SELECT A FROM T"));
  EXPECT_NE(quoted.text, bare.text);
}

TEST(FingerprintSqlTest, SensitiveToLiteralsVersionAndSalt) {
  ASSERT_OK_AND_ASSIGN(cache::CanonicalSql q1,
                       cache::CanonicalizeSql("SELECT * FROM T WHERE X = 1"));
  ASSERT_OK_AND_ASSIGN(cache::CanonicalSql q2,
                       cache::CanonicalizeSql("SELECT * FROM T WHERE X = 2"));
  // Default (text) keying: a different literal is a different key —
  // plans bake constants in, so sharing would serve a wrong plan.
  EXPECT_NE(cache::FingerprintSql(q1, 1), cache::FingerprintSql(q2, 1));
  // Shape keying collapses them.
  cache::FingerprintOptions param;
  param.parameterize_literals = true;
  EXPECT_EQ(cache::FingerprintSql(q1, 1, param),
            cache::FingerprintSql(q2, 1, param));
  // Catalog version and salt are both part of the key.
  EXPECT_NE(cache::FingerprintSql(q1, 1), cache::FingerprintSql(q1, 2));
  cache::FingerprintOptions salted;
  salted.salt = 1;
  EXPECT_NE(cache::FingerprintSql(q1, 1), cache::FingerprintSql(q1, 1, salted));
  // Determinism.
  EXPECT_EQ(cache::FingerprintSql(q1, 1), cache::FingerprintSql(q1, 1));
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

cache::PlanCache::EntryPtr Entry(const std::string& sql) {
  auto query = std::make_shared<PreparedQuery>();
  query->sql = sql;
  return query;
}

cache::PlanCacheOptions Bounds(size_t capacity, size_t byte_budget) {
  cache::PlanCacheOptions options;
  options.capacity = capacity;
  options.byte_budget = byte_budget;
  return options;
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  cache::PlanCache cache(Bounds(2, 1000));
  cache.Put(1, 0, Entry("a"), 1);
  cache.Put(2, 0, Entry("b"), 1);
  ASSERT_NE(cache.Get(1, 0), nullptr);  // refresh 1: now 2 is stalest
  cache.Put(3, 0, Entry("c"), 1);
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(2, 0), nullptr);
  EXPECT_NE(cache.Get(3, 0), nullptr);
  cache::LruStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, ByteBudgetEvictsUntilUnderLimit) {
  cache::PlanCache cache(Bounds(100, 100));
  cache.Put(1, 0, Entry("a"), 60);
  cache.Put(2, 0, Entry("b"), 60);  // 120 > 100: the stalest (1) goes
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_NE(cache.Get(2, 0), nullptr);
  EXPECT_EQ(cache.Stats().bytes, 60u);
  // An oversized entry still gets admitted alone (never evicts itself).
  cache.Put(3, 0, Entry("big"), 500);
  EXPECT_NE(cache.Get(3, 0), nullptr);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Stats().bytes, 500u);
}

TEST(PlanCacheTest, ReplaceUpdatesBytesAndValue) {
  cache::PlanCache cache(Bounds(10, 1000));
  cache.Put(7, 0, Entry("old"), 100);
  cache.Put(7, 0, Entry("new"), 10);
  cache::PlanCache::EntryPtr entry = cache.Get(7, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->sql, "new");
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Stats().bytes, 10u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(PlanCacheTest, NewerVersionPurgesOlderVersionsOnly) {
  cache::PlanCache cache(Bounds(100, 1000));
  cache.Put(1, 1, Entry("v1"), 1);
  cache.Put(2, 1, Entry("v1b"), 1);
  cache.Put(3, 2, Entry("v2"), 1);
  // The first lookup under version 2 drops both version-1 entries.
  EXPECT_NE(cache.Get(3, 2), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 2u);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Stats().bytes, 1u);
  EXPECT_EQ(cache.Get(1, 2), nullptr);
  EXPECT_EQ(cache.Get(2, 2), nullptr);
  EXPECT_NE(cache.Get(3, 2), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 2u);
}

TEST(PlanCacheTest, ClearEmptiesTheCache) {
  cache::PlanCache cache;
  cache.Put(1, 0, Entry("a"), 5);
  cache.Put(2, 0, Entry("b"), 5);
  cache.Clear();
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(2, 0), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  // Usable again after a clear.
  cache.Put(1, 0, Entry("a"), 5);
  EXPECT_NE(cache.Get(1, 0), nullptr);
}

TEST(PlanCacheTest, CapacityBoundsTheWholeCache) {
  // Eight keys that agree in their top 16 bits: `capacity` counts
  // entries across the whole cache, so all eight stay.
  cache::PlanCache cache(Bounds(8, 1000));
  const uint64_t high = UINT64_C(0xabcd) << 48;
  for (uint64_t i = 0; i < 8; ++i) cache.Put(high | i, 0, Entry("q"), 1);
  EXPECT_EQ(cache.Stats().entries, 8u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_NE(cache.Get(high | i, 0), nullptr) << i;
  }
  // The ninth evicts exactly one: the least recently used, key 0.
  cache.Put(high | 8, 0, Entry("q"), 1);
  EXPECT_EQ(cache.Stats().entries, 8u);
  EXPECT_EQ(cache.Get(high | 0, 0), nullptr);
}

// ---------------------------------------------------------------------------
// Optimizer integration
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, SecondPrepareIsAHitWithIdenticalPlan) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery cold, optimizer.Prepare(sql));
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_OK_AND_ASSIGN(PreparedQuery warm, optimizer.Prepare(sql));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.plan_hash, warm.plan_hash);
  EXPECT_EQ(cold.optimized_plan->ToString(),
            warm.optimized_plan->ToString());
  cache::LruStats stats = optimizer.plan_cache()->Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  // The hit is marked in EXPLAIN; the cold prepare is not.
  EXPECT_NE(warm.Explain().find("[plan cache hit]"), std::string::npos);
  EXPECT_EQ(cold.Explain().find("[plan cache hit]"), std::string::npos);
}

TEST(PlanCacheTest, HitStillExecutes) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery cold, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> cold_rows,
                       optimizer.Execute(cold));
  ASSERT_OK_AND_ASSIGN(PreparedQuery warm, optimizer.Prepare(sql));
  ASSERT_TRUE(warm.cache_hit);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> warm_rows,
                       optimizer.Execute(warm));
  EXPECT_EQ(cold_rows.size(), warm_rows.size());
}

TEST(PlanCacheTest, RecorderCarriesCacheHitFlag) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT SNAME FROM SUPPLIER WHERE SNO = 3";
  ASSERT_OK_AND_ASSIGN(PreparedQuery warmup, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(PreparedQuery hit, optimizer.Prepare(sql));
  ASSERT_TRUE(hit.cache_hit);
  obs::QueryRecorder::Global().Clear();
  ASSERT_OK(optimizer.Execute(warmup).status());
  ASSERT_OK(optimizer.Execute(hit).status());
  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_FALSE(history[0].cache_hit);
  EXPECT_TRUE(history[1].cache_hit);
  EXPECT_EQ(history[0].ToString().find("(cached)"), std::string::npos);
  EXPECT_NE(history[1].ToString().find("(cached)"), std::string::npos);
  EXPECT_NE(obs::QueryRecorder::Global().ToJson().find(
                "\"cache_hit\": true"),
            std::string::npos);
}

TEST(PlanCacheTest, PrepareSharedSkipsCopies) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT SNO, PNO FROM PARTS";
  bool hit = true;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> first,
                       optimizer.PrepareShared(sql, &hit));
  EXPECT_FALSE(hit);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> second,
                       optimizer.PrepareShared(sql, &hit));
  EXPECT_TRUE(hit);
  // Same immutable entry, not a copy.
  EXPECT_EQ(first.get(), second.get());
}

TEST(PlanCacheTest, DisabledCacheNeverHits) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  cache::PlanCacheOptions options;
  options.enabled = false;
  Optimizer optimizer(&db, {}, /*use_cost_model=*/false, options);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery a, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(PreparedQuery b, optimizer.Prepare(sql));
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(optimizer.plan_cache()->Stats().entries, 0u);
}

TEST(PlanCacheTest, CostModelBypassesCache) {
  // Cost estimates depend on live table sizes, which the catalog
  // version does not track — the cache must stand aside.
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db, {}, /*use_cost_model=*/true);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery a, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(PreparedQuery b, optimizer.Prepare(sql));
  EXPECT_TRUE(a.cost_based);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(optimizer.plan_cache()->Stats().entries, 0u);
}

TEST(PlanCacheTest, VerifyToggleKeysSeparateEntries) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  optimizer.set_verify_plans(true);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery verified, optimizer.Prepare(sql));
  EXPECT_TRUE(verified.verified);
  optimizer.set_verify_plans(false);
  // Different mode bits ⇒ the verified entry must not be served.
  ASSERT_OK_AND_ASSIGN(PreparedQuery unverified, optimizer.Prepare(sql));
  EXPECT_FALSE(unverified.cache_hit);
  EXPECT_FALSE(unverified.verified);
}

// ---------------------------------------------------------------------------
// The one key: the exact SQL bytes, confirmed on every hit
// ---------------------------------------------------------------------------

/// PrepareShared that checks the one-count-per-prepare contract: every
/// call moves exactly one of `hits` and `misses`.
std::shared_ptr<const PreparedQuery> PrepareCounted(const Optimizer& optimizer,
                                                    const std::string& sql,
                                                    bool* hit) {
  const cache::LruStats before = optimizer.plan_cache()->Stats();
  auto r = optimizer.PrepareShared(sql, hit);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const cache::LruStats after = optimizer.plan_cache()->Stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 1)
      << sql;
  return r.ok() ? *r : nullptr;
}

TEST(PlanCacheTest, ExactRepeatIsARawHit) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter("cache.hits");
  const std::string sql = "SELECT SNAME FROM SUPPLIER WHERE SNO = 3";
  bool hit = true;
  auto cold = PrepareCounted(optimizer, sql, &hit);
  EXPECT_FALSE(hit);
  const cache::LruStats before = optimizer.plan_cache()->Stats();
  const uint64_t registry_before = hits.value();
  auto again = PrepareCounted(optimizer, sql, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), cold.get());
  const cache::LruStats after = optimizer.plan_cache()->Stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(hits.value(), registry_before + 1);
}

TEST(PlanCacheTest, RespelledStatementGetsItsOwnEntry) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  bool hit = true;
  auto cold =
      PrepareCounted(optimizer, "SELECT DISTINCT SNO FROM SUPPLIER", &hit);
  EXPECT_FALSE(hit);
  for (const std::string variant :
       {"select distinct sno\nFROM supplier",
        "SELECT DISTINCT SNO -- every supplier\nFROM SUPPLIER"}) {
    // The first request prepares cold into the variant's own entry...
    auto first = PrepareCounted(optimizer, variant, &hit);
    EXPECT_FALSE(hit) << variant;
    EXPECT_NE(first.get(), cold.get()) << variant;
    EXPECT_EQ(first->sql, variant);
    EXPECT_EQ(first->plan_hash, cold->plan_hash) << variant;
    // ...and every repeat hits it.
    auto again = PrepareCounted(optimizer, variant, &hit);
    EXPECT_TRUE(hit) << variant;
    EXPECT_EQ(again.get(), first.get()) << variant;
    // The request is recorded under the bytes its client sent.
    obs::QueryRecorder::Global().Clear();
    ASSERT_OK(optimizer.Execute(*again).status());
    std::vector<obs::QueryRecord> history =
        obs::QueryRecorder::Global().History();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].prepared->query, variant);
  }
  EXPECT_EQ(optimizer.plan_cache()->Stats().entries, 3u);
}

TEST(PlanCacheTest, KeyCollisionIsServedAsAMiss) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string a = "SELECT DISTINCT SNO FROM SUPPLIER";
  const std::string b = "SELECT SNAME FROM SUPPLIER WHERE SNO = 3";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> entry_a,
                       optimizer.PrepareShared(a));
  Optimizer reference(&db);
  ASSERT_OK_AND_ASSIGN(PreparedQuery reference_b, reference.Prepare(b));
  ASSERT_NE(entry_a->plan_hash, reference_b.plan_hash);
  // A 64-bit key collision, forced: A's entry under the key that
  // PrepareShared computes for B.
  const uint64_t version = db.catalog().version();
  optimizer.plan_cache()->Put(optimizer.CacheKey(b, version), version,
                              entry_a, 1);
  bool hit = true;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> served,
                       optimizer.PrepareShared(b, &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(served->sql, b);
  EXPECT_EQ(served->plan_hash, reference_b.plan_hash);
  // The cold prepare replaced A's entry: B now hits its own plan.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> again,
                       optimizer.PrepareShared(b, &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), served.get());
}

TEST(PlanCacheTest, RawKeyCollisionIsServedCorrectly) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string a = "SELECT DISTINCT SNO FROM SUPPLIER";
  const std::string b = "SELECT SNAME FROM SUPPLIER WHERE SNO = 3";
  Optimizer reference(&db);
  ASSERT_OK_AND_ASSIGN(PreparedQuery reference_a, reference.Prepare(a));
  ASSERT_OK_AND_ASSIGN(PreparedQuery reference_b, reference.Prepare(b));
  ASSERT_NE(reference_a.plan_hash, reference_b.plan_hash);
  // A collision on the byte key, forced: A's entry, prepared by another
  // optimizer, filed under its own key and under the key PrepareShared
  // computes for B's bytes.
  Optimizer preparer(&db);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> entry_a,
                       preparer.PrepareShared(a));
  const uint64_t version = db.catalog().version();
  optimizer.plan_cache()->Put(optimizer.CacheKey(a, version), version,
                              entry_a, 1);
  optimizer.plan_cache()->Put(optimizer.CacheKey(b, version), version,
                              entry_a, 1);
  // B's bytes differ from the entry's, so B is prepared cold, with one
  // count.
  bool hit = true;
  auto served_b = PrepareCounted(optimizer, b, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(served_b->sql, b);
  EXPECT_EQ(served_b->plan_hash, reference_b.plan_hash);
  // B took the key: its repeat hits its own plan.
  auto again_b = PrepareCounted(optimizer, b, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again_b.get(), served_b.get());
  // A is still served, by its own key.
  auto served_a = PrepareCounted(optimizer, a, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(served_a.get(), entry_a.get());
  EXPECT_EQ(served_a->plan_hash, reference_a.plan_hash);
  EXPECT_EQ(optimizer.plan_cache()->Stats().entries, 2u);
}

TEST(PlanCacheTest, SqlThatDoesNotLexCountsOneMiss) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("cache.misses");
  const uint64_t registry_before = misses.value();
  const cache::LruStats before = optimizer.plan_cache()->Stats();
  bool hit = true;
  auto r = optimizer.PrepareShared("SELECT 'oops FROM SUPPLIER", &hit);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(hit);
  const cache::LruStats after = optimizer.plan_cache()->Stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(misses.value(), registry_before + 1);
}

TEST(PlanCacheTest, RawHitRefreshesRecency) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  cache::PlanCacheOptions options;
  options.capacity = 2;
  Optimizer optimizer(&db, {}, /*use_cost_model=*/false, options);
  const std::string x = "SELECT SNO FROM SUPPLIER";
  const std::string y = "SELECT SNAME FROM SUPPLIER";
  const std::string z = "SELECT SCITY FROM SUPPLIER";
  bool hit = true;
  PrepareCounted(optimizer, x, &hit);
  PrepareCounted(optimizer, y, &hit);
  PrepareCounted(optimizer, x, &hit);  // exact repeat: X is now newest
  EXPECT_TRUE(hit);
  PrepareCounted(optimizer, z, &hit);  // evicts the stalest: Y
  EXPECT_EQ(optimizer.plan_cache()->Stats().evictions, 1u);
  PrepareCounted(optimizer, x, &hit);
  EXPECT_TRUE(hit);
  PrepareCounted(optimizer, y, &hit);
  EXPECT_FALSE(hit);
}

TEST(PlanCacheTest, DdlInvalidatesStaleEntries) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE Z (K INTEGER NOT NULL, V INTEGER, PRIMARY KEY (K))"));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT K FROM Z";
  // With the key declared, DISTINCT is provably redundant and removed.
  ASSERT_OK_AND_ASSIGN(PreparedQuery keyed, optimizer.Prepare(sql));
  EXPECT_TRUE(keyed.analysis.distinct_unnecessary);
  EXPECT_FALSE(keyed.rewrites.empty());
  ASSERT_OK_AND_ASSIGN(PreparedQuery cached, optimizer.Prepare(sql));
  EXPECT_TRUE(cached.cache_hit);
  // DDL: recreate Z without the key. The catalog version bumps twice.
  uint64_t before = db.catalog().version();
  ASSERT_OK(db.DropTable("Z"));
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE Z (K INTEGER, V INTEGER)"));
  EXPECT_EQ(db.catalog().version(), before + 2);
  // The stale plan (DISTINCT removed) must never be served: the new
  // prepare misses and keeps DISTINCT.
  ASSERT_OK_AND_ASSIGN(PreparedQuery unkeyed, optimizer.Prepare(sql));
  EXPECT_FALSE(unkeyed.cache_hit);
  EXPECT_FALSE(unkeyed.analysis.distinct_unnecessary);
  EXPECT_TRUE(unkeyed.rewrites.empty());
  EXPECT_NE(unkeyed.plan_hash, keyed.plan_hash);
  // The superseded entry was also purged from memory (lazy
  // invalidation on the first post-bump lookup).
  EXPECT_GE(optimizer.plan_cache()->Stats().invalidations, 1u);
}

TEST(PlanCacheTest, EvictionUnderTinyCapacity) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  cache::PlanCacheOptions options;
  options.capacity = 2;
  Optimizer optimizer(&db, {}, /*use_cost_model=*/false, options);
  ASSERT_OK(optimizer.Prepare("SELECT SNO FROM SUPPLIER").status());
  ASSERT_OK(optimizer.Prepare("SELECT SNAME FROM SUPPLIER").status());
  ASSERT_OK(optimizer.Prepare("SELECT SCITY FROM SUPPLIER").status());
  cache::LruStats stats = optimizer.plan_cache()->Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The first (stalest) query is the one that went.
  ASSERT_OK_AND_ASSIGN(PreparedQuery again,
                       optimizer.Prepare("SELECT SNO FROM SUPPLIER"));
  EXPECT_FALSE(again.cache_hit);
}

TEST(PlanCacheTest, ToTextRendersStats) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK(optimizer.Prepare("SELECT SNO FROM SUPPLIER").status());
  ASSERT_OK(optimizer.Prepare("SELECT SNO FROM SUPPLIER").status());
  std::string text = optimizer.plan_cache()->ToText();
  EXPECT_NE(text.find("plan cache: enabled"), std::string::npos);
  EXPECT_NE(text.find("hits=1"), std::string::npos);
  EXPECT_NE(text.find("misses=1"), std::string::npos);
  EXPECT_NE(text.find("hit ratio 50.0%"), std::string::npos);
}

}  // namespace
}  // namespace uniqopt
