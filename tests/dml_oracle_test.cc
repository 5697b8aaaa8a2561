// Differential DML oracle: a randomized INSERT/UPDATE/DELETE workload
// runs against the transactional plane while a shadow model (plain
// vectors mutated by the same logical operations) tracks the expected
// contents. Its WHERE clauses bind a whole key (one index probe), part
// of a key, or no key (both scans). Afterwards the two must agree row-for-row, every declared
// key must hold by exhaustive scan, every committed index must agree
// with its rows, and the verify sweep + equivalence prover must stay
// clean over 100+ corpus/random queries — DML that keeps the proofs
// honest. An 8-thread reader/writer hammer (also on the TSan list in
// scripts/check.sh) checks that readers only ever observe committed
// snapshots.

#include <atomic>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "txn/dml_executor.h"
#include "uniqopt/uniqopt.h"
#include "workload/query_corpus.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

#include "test_util.h"

namespace uniqopt {
namespace {

std::vector<Row> TableRows(const Database& db, const std::string& table) {
  auto t = db.GetTable(table);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  TableSnapshot snap = (*t)->Snapshot();
  return {snap->rows.begin(), snap->rows.end()};
}

/// Every declared key of every table holds by exhaustive scan, and
/// every committed index agrees with the row storage it covers.
void CheckAllKeysExhaustively(const Database& db) {
  for (const std::string& name : db.catalog().TableNames()) {
    auto t = db.GetTable(name);
    ASSERT_TRUE(t.ok());
    const TableDef& def = (*t)->def();
    TableSnapshot snap = (*t)->Snapshot();
    ASSERT_EQ(snap->indexes.size(), def.keys().size()) << name;
    for (size_t k = 0; k < def.keys().size(); ++k) {
      const KeyConstraint& key = def.keys()[k];
      std::vector<Row> projected;
      projected.reserve(snap->rows.size());
      for (const Row& row : snap->rows) {
        projected.push_back(row.Project(key.columns));
      }
      EXPECT_FALSE(HasDuplicates(projected))
          << name << " key " << key.name << " violated";
      EXPECT_EQ(snap->indexes[k].size(), snap->rows.size()) << name;
      for (size_t i = 0; i < snap->rows.size(); ++i) {
        auto ordinal = snap->Lookup(k, projected[i]);
        ASSERT_TRUE(ordinal.has_value()) << name << " key " << key.name;
        EXPECT_EQ(*ordinal, i) << name << " key " << key.name;
      }
    }
  }
}

class DmlOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 40;
    data.parts_per_supplier = 5;
    data.num_agents = 20;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
    supplier_ = TableRows(db_, "SUPPLIER");
    parts_ = TableRows(db_, "PARTS");
  }

  Result<txn::DmlResult> Dml(const std::string& sql) {
    txn::DmlExecutor executor(&db_);
    return executor.ExecuteSql(sql);
  }

  size_t ShadowIndexOf(const std::vector<Row>& rows, int64_t key0,
                       int64_t key1 = -1, bool two = false) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][0].is_null() || rows[i][0].AsInteger() != key0) continue;
      if (two && (rows[i][1].is_null() || rows[i][1].AsInteger() != key1)) {
        continue;
      }
      return i;
    }
    return rows.size();
  }

  Database db_;
  std::vector<Row> supplier_;  // shadow model
  std::vector<Row> parts_;     // shadow model
};

TEST_F(DmlOracleTest, RandomizedWorkloadMatchesShadowModel) {
  std::mt19937_64 rng(20260809);
  const char* kCities[] = {"Chicago", "New York", "Toronto"};
  const char* kColors[] = {"RED", "GREEN", "BLUE"};
  std::set<int64_t> live_sno;
  for (const Row& r : supplier_) live_sno.insert(r[0].AsInteger());
  std::set<int64_t> inserted_only;  // ours, guaranteed child-free
  int64_t next_sno = 200;
  int64_t next_oem = 50000;
  size_t commits = 0;

  for (int step = 0; step < 300; ++step) {
    switch (rng() % 9) {
      case 0: {  // insert a fresh supplier
        if (next_sno > 490) break;
        int64_t sno = next_sno++;
        const char* city = kCities[rng() % 3];
        double budget = static_cast<double>(1 + rng() % 50) + 0.5;
        char sql[256];
        std::snprintf(sql, sizeof sql,
                      "INSERT INTO SUPPLIER VALUES (%lld, 'W%lld', '%s', "
                      "%.1f, 'Active')",
                      static_cast<long long>(sno),
                      static_cast<long long>(sno), city, budget);
        Status st = Dml(sql).status();
        ASSERT_TRUE(st.ok()) << sql << ": " << st.ToString();
        supplier_.push_back(Row(std::vector<Value>{
            Value::Integer(sno), Value::String("W" + std::to_string(sno)),
            Value::String(city), Value::Double(budget),
            Value::String("Active")}));
        live_sno.insert(sno);
        inserted_only.insert(sno);
        ++commits;
        break;
      }
      case 1: {  // insert a part under a live supplier
        if (live_sno.empty()) break;
        auto it = live_sno.begin();
        std::advance(it, rng() % live_sno.size());
        int64_t sno = *it;
        int64_t pno = 100 + static_cast<int64_t>(rng() % 1000);
        if (ShadowIndexOf(parts_, sno, pno, true) != parts_.size()) break;
        int64_t oem = next_oem++;
        char sql[256];
        std::snprintf(sql, sizeof sql,
                      "INSERT INTO PARTS VALUES (%lld, %lld, 'P%lld', "
                      "%lld, 'RED')",
                      static_cast<long long>(sno),
                      static_cast<long long>(pno),
                      static_cast<long long>(pno),
                      static_cast<long long>(oem));
        Status st = Dml(sql).status();
        ASSERT_TRUE(st.ok()) << sql << ": " << st.ToString();
        parts_.push_back(Row(std::vector<Value>{
            Value::Integer(sno), Value::Integer(pno),
            Value::String("P" + std::to_string(pno)), Value::Integer(oem),
            Value::String("RED")}));
        inserted_only.erase(sno);  // now has a child
        ++commits;
        break;
      }
      case 2: {  // update a live supplier's budget
        if (live_sno.empty()) break;
        auto it = live_sno.begin();
        std::advance(it, rng() % live_sno.size());
        int64_t sno = *it;
        double budget = static_cast<double>(1 + rng() % 90) + 0.5;
        char sql[256];
        std::snprintf(sql, sizeof sql,
                      "UPDATE SUPPLIER SET BUDGET = %.1f WHERE SNO = %lld",
                      budget, static_cast<long long>(sno));
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        ASSERT_EQ(r.rows_affected, 1u) << sql;
        size_t idx = ShadowIndexOf(supplier_, sno);
        ASSERT_LT(idx, supplier_.size());
        supplier_[idx][3] = Value::Double(budget);
        ++commits;
        break;
      }
      case 3: {  // delete one of our parts
        if (parts_.empty()) break;
        size_t idx = rng() % parts_.size();
        int64_t sno = parts_[idx][0].AsInteger();
        int64_t pno = parts_[idx][1].AsInteger();
        char sql[256];
        std::snprintf(sql, sizeof sql,
                      "DELETE FROM PARTS WHERE SNO = %lld AND PNO = %lld",
                      static_cast<long long>(sno),
                      static_cast<long long>(pno));
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        ASSERT_EQ(r.rows_affected, 1u) << sql;
        parts_.erase(parts_.begin() + static_cast<ptrdiff_t>(idx));
        ++commits;
        break;
      }
      case 4: {  // delete one of our child-free suppliers
        if (inserted_only.empty()) break;
        auto it = inserted_only.begin();
        std::advance(it, rng() % inserted_only.size());
        int64_t sno = *it;
        char sql[128];
        std::snprintf(sql, sizeof sql,
                      "DELETE FROM SUPPLIER WHERE SNO = %lld",
                      static_cast<long long>(sno));
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        ASSERT_EQ(r.rows_affected, 1u) << sql;
        size_t idx = ShadowIndexOf(supplier_, sno);
        ASSERT_LT(idx, supplier_.size());
        supplier_.erase(supplier_.begin() + static_cast<ptrdiff_t>(idx));
        inserted_only.erase(sno);
        live_sno.erase(sno);
        break;
      }
      case 6: {  // partial-key UPDATE: SNO alone does not bind (SNO, PNO)
        if (live_sno.empty()) break;
        auto it = live_sno.begin();
        std::advance(it, rng() % live_sno.size());
        int64_t sno = *it;
        const char* color = kColors[rng() % 3];
        char sql[160];
        std::snprintf(sql, sizeof sql,
                      "UPDATE PARTS SET COLOR = '%s' WHERE SNO = %lld", color,
                      static_cast<long long>(sno));
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        size_t expected = 0;
        for (Row& row : parts_) {
          if (row[0].AsInteger() != sno) continue;
          row[4] = Value::String(color);
          ++expected;
        }
        ASSERT_EQ(r.rows_affected, expected) << sql;
        if (expected > 0) ++commits;
        break;
      }
      case 7: {  // non-key UPDATE: a range over a non-key column
        const char* city = kCities[rng() % 3];
        double below = static_cast<double>(10 + rng() % 5000);
        double budget = static_cast<double>(1 + rng() % 50) + 0.5;
        char sql[192];
        std::snprintf(sql, sizeof sql,
                      "UPDATE SUPPLIER SET BUDGET = %.1f WHERE SCITY = '%s' "
                      "AND BUDGET < %.1f",
                      budget, city, below);
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        size_t expected = 0;
        for (Row& row : supplier_) {
          if (row[2].is_null() || row[2].AsString() != city ||
              row[3].is_null() || !(row[3].AsDouble() < below)) {
            continue;
          }
          row[3] = Value::Double(budget);
          ++expected;
        }
        ASSERT_EQ(r.rows_affected, expected) << sql;
        if (expected > 0) ++commits;
        break;
      }
      case 8: {  // DELETE by the second key (OEM_PNO) or by PNO alone
        if (parts_.empty()) break;
        const Row picked = parts_[rng() % parts_.size()];
        const bool by_oem = rng() % 2 == 0 && !picked[3].is_null();
        const size_t column = by_oem ? 3 : 1;
        char sql[128];
        std::snprintf(sql, sizeof sql, "DELETE FROM PARTS WHERE %s = %lld",
                      by_oem ? "OEM_PNO" : "PNO",
                      static_cast<long long>(picked[column].AsInteger()));
        ASSERT_OK_AND_ASSIGN(txn::DmlResult r, Dml(sql));
        const size_t before = parts_.size();
        std::erase_if(parts_, [&](const Row& row) {
          return !row[column].is_null() &&
                 row[column].AsInteger() == picked[column].AsInteger();
        });
        ASSERT_EQ(r.rows_affected, before - parts_.size()) << sql;
        if (by_oem) {
          ASSERT_EQ(r.rows_affected, 1u) << sql;
        }
        ++commits;
        break;
      }
      default: {  // violating insert: must roll back and change nothing
        if (live_sno.empty()) break;
        int64_t sno = *live_sno.begin();
        char sql[192];
        std::snprintf(
            sql, sizeof sql,
            "INSERT INTO SUPPLIER VALUES (%lld, 'DUP', 'Toronto', 1.0, "
            "'Active')",
            static_cast<long long>(sno));
        auto r = Dml(sql);
        ASSERT_FALSE(r.ok()) << sql;
        EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
        break;
      }
    }
  }
  ASSERT_GT(commits, 50u);

  // 1. Differential check: committed contents == shadow model.
  EXPECT_TRUE(MultisetEquals(TableRows(db_, "SUPPLIER"), supplier_));
  EXPECT_TRUE(MultisetEquals(TableRows(db_, "PARTS"), parts_));

  // 2. Every declared key holds by exhaustive scan; indexes agree.
  CheckAllKeysExhaustively(db_);

  // 3. Verify sweep + equivalence prover over 100+ queries against the
  // mutated database: the rewrites' uniqueness proofs rest on declared
  // constraints, and DML enforced them — so every plan must still
  // verify clean, and optimized plans must still compute the same rows
  // as the index-free physical baseline.
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(true);
  size_t verified = 0;
  size_t executed = 0;
  std::vector<std::string> sqls;
  for (const CorpusQuery& q : DistinctQueryCorpus()) sqls.push_back(q.sql);
  RandomQueryOptions qopts;
  qopts.seed = 7;
  RandomQueryGenerator gen(qopts);
  for (int i = 0; i < 120; ++i) sqls.push_back(gen.NextQuery());
  for (const std::string& sql : sqls) {
    auto prepared = optimizer.Prepare(sql);
    if (!prepared.ok()) continue;  // corpus/generator may outrun the schema
    EXPECT_TRUE(prepared->verification.Clean())
        << sql << "\n" << prepared->verification.ToString();
    ++verified;
    if (executed < 30 && prepared->host_vars.empty()) {
      PhysicalOptions no_indexes;
      no_indexes.use_indexes = false;
      auto fast = optimizer.Execute(*prepared);
      auto slow = optimizer.Execute(*prepared, {}, no_indexes);
      ASSERT_TRUE(fast.ok()) << sql;
      ASSERT_TRUE(slow.ok()) << sql;
      EXPECT_TRUE(MultisetEquals(*fast, *slow)) << sql;
      ++executed;
    }
  }
  EXPECT_GE(verified, 100u);
  EXPECT_GE(executed, 20u);
}

// 8-thread hammer: 4 single-writer-per-statement writers against one
// table, 4 readers pinning snapshots mid-flight. Each INSERT statement
// commits two rows for its writer atomically and each DELETE removes
// all of them, so any committed snapshot must show an EVEN per-writer
// row count — a torn (uncommitted or partially applied) version is the
// only way a reader could ever observe an odd one.
TEST(DmlHammerTest, EightThreadsReadersSeeOnlyCommittedSnapshots) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE HAMMER (A INTEGER NOT NULL, W INTEGER, "
      "PRIMARY KEY (A))"));
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kIters = 120;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, &violations, w] {
      txn::DmlExecutor executor(&db);
      int64_t base = 1000000 * (w + 1);
      for (int it = 0; it < kIters; ++it) {
        int64_t a = base + 2 * it;
        char sql[160];
        std::snprintf(sql, sizeof sql,
                      "INSERT INTO HAMMER VALUES (%lld, %d), (%lld, %d)",
                      static_cast<long long>(a), w,
                      static_cast<long long>(a + 1), w);
        if (!executor.ExecuteSql(sql).ok()) violations.fetch_add(1);
        if (it % 5 == 4) {
          std::snprintf(sql, sizeof sql,
                        "DELETE FROM HAMMER WHERE W = %d", w);
          if (!executor.ExecuteSql(sql).ok()) violations.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db, &done, &violations, r] {
      std::mt19937_64 rng(1000 + r);
      while (!done.load(std::memory_order_acquire)) {
        auto t = db.GetTable("HAMMER");
        if (!t.ok()) {
          violations.fetch_add(1);
          break;
        }
        TableSnapshot snap = (*t)->Snapshot();
        int counts[kWriters] = {0, 0, 0, 0};
        std::set<int64_t> seen;
        for (const Row& row : snap->rows) {
          if (!seen.insert(row[0].AsInteger()).second) {
            violations.fetch_add(1);  // PK duplicate inside a snapshot
          }
          counts[row[1].AsInteger()]++;
        }
        for (int w = 0; w < kWriters; ++w) {
          if (counts[w] % 2 != 0) violations.fetch_add(1);
        }
        if (snap->indexes[0].size() != snap->rows.size()) {
          violations.fetch_add(1);
        }
        // Index-backed point reads race the writers too.
        int64_t probe =
            1000000 * (1 + static_cast<int64_t>(rng() % kWriters)) +
            static_cast<int64_t>(rng() % (2 * kIters));
        char sql[96];
        std::snprintf(sql, sizeof sql,
                      "SELECT A, W FROM HAMMER WHERE A = %lld",
                      static_cast<long long>(probe));
        auto rows = RunSql(db, sql);
        if (!rows.ok() || rows->size() > 1) violations.fetch_add(1);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(violations.load(), 0);
  CheckAllKeysExhaustively(db);
}

}  // namespace
}  // namespace uniqopt
