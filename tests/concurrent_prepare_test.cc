// Concurrency hammer for the plan cache: many threads prepare a mixed
// hit/miss workload against ONE Optimizer and every thread must see
// exactly the plan a single-threaded optimizer produces, with zero
// verifier violations. Runs under ThreadSanitizer in check.sh --tsan,
// where any data race between the hit path (lookup and recency splice)
// and the miss path (insert and evict, entries freed after the unlock)
// is fatal, and under ASan/UBSan in every check.sh run.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "txn/dml_executor.h"
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
  // A whitespace variant of every statement rides along: it keys its
  // own entry, with the same plan as its statement.
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
  // each statement and its variant have an entry each.
  cache::LruStats stats = hammered.plan_cache()->Stats();
  EXPECT_EQ(stats.entries, 2 * corpus.size());
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
  // Hits share one immutable PreparedQuery, and with it its stored
  // lowering decisions, across threads; executing it concurrently must
  // be safe (ExecContext and the operator tree are per call).
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

  // A host-variable point lookup read from every thread while one writer
  // commits UPDATEs of the row it looks up: each read sees one committed
  // value, and never an older one than the same thread saw before. Each
  // commit moves the catalog version, so readers mix builds from shared
  // stored decisions (entries prepared since the last commit) with fresh
  // decisions (the entry held from before the writer started).
  const std::string lookup = "SELECT SNAME FROM SUPPLIER WHERE SNO = :S";
  const std::vector<std::pair<std::string, Value>> params = {
      {"S", Value::Integer(7)}};
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> held,
                       optimizer.PrepareShared(lookup));
  txn::DmlExecutor executor(&db);
  ASSERT_OK(executor
                .ExecuteSql("UPDATE SUPPLIER SET SNAME = 'v0' WHERE SNO = 7")
                .status());
  constexpr int kCommits = 40;
  // The committed value's index: "v<k>" → k.
  auto version_of = [](const Result<std::vector<Row>>& rows) -> int {
    if (!rows.ok() || rows->size() != 1) return -1;
    const std::string name((*rows)[0][0].AsString());
    if (name.size() < 2 || name[0] != 'v') return -1;
    return std::stoi(name.substr(1));
  };
  std::atomic<bool> writing{true};
  std::atomic<int> stale{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      int seen = 0;
      for (int i = 0; writing.load() || i < 8; ++i) {
        std::shared_ptr<const PreparedQuery> query = held;
        if ((i + t) % 2 == 1) {
          auto shared = optimizer.PrepareShared(lookup);
          if (!shared.ok()) {
            torn.fetch_add(1);
            continue;
          }
          query = std::move(*shared);
        }
        const int version = version_of(optimizer.Execute(*query, params));
        if (version < 0 || version > kCommits) {
          torn.fetch_add(1);
        } else if (version < seen) {
          stale.fetch_add(1);
        } else {
          seen = version;
        }
      }
    });
  }
  for (int k = 1; k <= kCommits; ++k) {
    Status committed = executor
                           .ExecuteSql("UPDATE SUPPLIER SET SNAME = 'v" +
                                       std::to_string(k) + "' WHERE SNO = 7")
                           .status();
    EXPECT_OK(committed);
    if (!committed.ok()) break;  // the readers still need joining
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  writing.store(false);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(version_of(optimizer.Execute(*held, params)), kCommits);
}

}  // namespace
}  // namespace uniqopt
