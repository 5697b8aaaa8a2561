// Concurrency hammer for the plan cache: many threads prepare a mixed
// hit/miss workload against ONE Optimizer and every thread must see
// exactly the plan a single-threaded optimizer produces, with zero
// verifier violations. Runs under ThreadSanitizer in check.sh --tsan,
// where any data race between the hit path (lookup and recency splice)
// and the miss path (insert and evict, entries freed after the unlock)
// is fatal, and under ASan/UBSan in every check.sh run.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/query_corpus.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

constexpr unsigned kThreads = 8;
constexpr int kRoundsPerThread = 12;

std::vector<std::string> CorpusSql() {
  std::vector<std::string> out;
  for (const CorpusQuery& q : DistinctQueryCorpus()) out.push_back(q.sql);
  return out;
}

TEST(ConcurrentPrepareTest, EightThreadsMixedCorpusIdenticalPlans) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));

  // Reference plans from a single-threaded optimizer with its own
  // (fresh) cache.
  Optimizer reference(&db);
  reference.set_verify_plans(true);
  std::vector<std::string> corpus = CorpusSql();
  ASSERT_GE(corpus.size(), 10u);
  std::map<std::string, std::string> expected_plan;
  std::map<std::string, uint64_t> expected_hash;
  for (const std::string& sql : corpus) {
    ASSERT_OK_AND_ASSIGN(PreparedQuery q, reference.Prepare(sql));
    expected_plan[sql] = q.optimized_plan->ToString();
    expected_hash[sql] = q.plan_hash;
  }
  // A whitespace variant of every statement rides along: it shares its
  // statement's slot through the canonical key, whichever spelling
  // reaches the cache first and files its bytes as the raw key.
  std::vector<std::string> inputs = corpus;
  for (const std::string& sql : corpus) {
    const std::string variant = "  " + sql + "\n";
    expected_plan[variant] = expected_plan[sql];
    expected_hash[variant] = expected_hash[sql];
    inputs.push_back(variant);
  }

  // Hammer a second, cold optimizer: the first thread to reach a query
  // takes the miss path (full prepare + insert) while others race it on
  // the hit path for queries prepared in earlier rounds.
  Optimizer hammered(&db);
  hammered.set_verify_plans(true);
  std::atomic<int> mismatches{0};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          // Interleave differently per thread so hits and misses mix.
          const std::string& sql = inputs[(i + t + round) % inputs.size()];
          auto r = hammered.PrepareShared(sql);
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const PreparedQuery& q = **r;
          if (q.optimized_plan->ToString() != expected_plan[sql] ||
              q.plan_hash != expected_hash[sql]) {
            mismatches.fetch_add(1);
          }
          if (!q.verified || !q.verification.violations.empty()) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  // Every query prepared once cold at most a handful of times (racing
  // first-misses may each compute), everything else served as a hit;
  // each statement and its variant share one entry.
  cache::LruStats stats = hammered.plan_cache()->Stats();
  EXPECT_EQ(stats.entries, corpus.size());
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(ConcurrentPrepareTest, PrepareBatchMatchesSerialPrepares) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<std::string> corpus = CorpusSql();

  Optimizer serial(&db);
  std::vector<uint64_t> expected;
  for (const std::string& sql : corpus) {
    ASSERT_OK_AND_ASSIGN(PreparedQuery q, serial.Prepare(sql));
    expected.push_back(q.plan_hash);
  }

  Optimizer batched(&db);
  ASSERT_OK_AND_ASSIGN(auto prepared,
                       batched.PrepareBatch(corpus, kThreads));
  ASSERT_EQ(prepared.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_NE(prepared[i], nullptr);
    EXPECT_EQ(prepared[i]->sql, corpus[i]);
    EXPECT_EQ(prepared[i]->plan_hash, expected[i]) << corpus[i];
  }
}

TEST(ConcurrentPrepareTest, PrepareBatchReportsLowestIndexError) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  std::vector<std::string> sqls = {
      "SELECT SNO FROM SUPPLIER",
      "SELECT NOPE FROM MISSING_TABLE",
      "SELECT SNAME FROM SUPPLIER",
  };
  auto r = optimizer.PrepareBatch(sqls, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("MISSING_TABLE"), std::string::npos);
}

TEST(ConcurrentPrepareTest, ConcurrentExecuteOfSharedEntries) {
  // Hits share one immutable PreparedQuery across threads; executing it
  // concurrently must be safe (ExecContext is per-call).
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> entry,
                       optimizer.PrepareShared(sql));
  std::atomic<int> bad{0};
  size_t expected_rows = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, optimizer.Execute(*entry));
    expected_rows = rows.size();
  }
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto shared = optimizer.PrepareShared(sql);
        if (!shared.ok()) {
          bad.fetch_add(1);
          continue;
        }
        auto rows = optimizer.Execute(**shared);
        if (!rows.ok() || rows->size() != expected_rows) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace uniqopt
