// Transactional DML plane: INSERT/UPDATE/DELETE semantics, atomic
// rollback on constraint violations (the failed statement leaves the
// committed version byte-identical), CREATE UNIQUE INDEX validation of
// existing rows, catalog-version bumps that invalidate the plan cache,
// and the index-backed Table::ContainsKeyValue / advisor-purge
// satellites.

#include <array>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/advisor.h"
#include "obs/metrics.h"
#include "txn/dml.h"
#include "txn/dml_executor.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

#include "test_util.h"

namespace uniqopt {
namespace {

std::vector<Row> SnapshotRows(const Database& db, const std::string& table) {
  auto t = db.GetTable(table);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  TableSnapshot snap = (*t)->Snapshot();
  return {snap->rows.begin(), snap->rows.end()};
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].NullSafeEquals(b[i])) return false;
  }
  return true;
}

Result<txn::DmlResult> Dml(Database* db, const std::string& sql) {
  txn::DmlExecutor executor(db);
  return executor.ExecuteSql(sql);
}

/// Every index of `version` holds exactly its rows, filing row i's key
/// at position i.
void ExpectIndexesMatchRows(const TableVersion& version) {
  for (size_t k = 0; k < version.indexes.size(); ++k) {
    const UniqueIndex& index = version.indexes[k];
    EXPECT_EQ(index.size(), version.rows.size());
    for (size_t i = 0; i < version.rows.size(); ++i) {
      auto ordinal =
          version.Lookup(k, version.rows[i].Project(index.key_columns()));
      ASSERT_TRUE(ordinal.has_value()) << "key " << k << " row " << i;
      EXPECT_EQ(*ordinal, i) << "key " << k;
    }
  }
}

/// T(A, B, C) keyed on A and on B, loaded with `n` rows (i, -i, 'L').
void MakeTwoKeyTable(Database* db, int n) {
  EXPECT_OK(db->ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER NOT NULL, "
      "C VARCHAR(10), PRIMARY KEY (A), UNIQUE (B))"));
  Table* t = *db->GetTable("T");
  for (int i = 1; i <= n; ++i) {
    EXPECT_OK(t->InsertValues({Value::Integer(i), Value::Integer(-i),
                               Value::String("L")}));
  }
}

TEST(DmlTest, IsDmlSqlClassifiesLeadingKeyword) {
  EXPECT_TRUE(txn::IsDmlSql("INSERT INTO T VALUES (1)"));
  EXPECT_TRUE(txn::IsDmlSql("  update t set a = 1"));
  EXPECT_TRUE(txn::IsDmlSql("Delete FROM T"));
  EXPECT_FALSE(txn::IsDmlSql("SELECT * FROM T"));
  EXPECT_FALSE(txn::IsDmlSql("CREATE UNIQUE INDEX I ON T (A)"));
}

TEST(DmlTest, InsertAppendsRowAndBumpsCatalogVersion) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  uint64_t before = db.catalog().version();
  size_t rows_before = SnapshotRows(db, "SUPPLIER").size();
  ASSERT_OK_AND_ASSIGN(
      txn::DmlResult r,
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (401, 'NEWCO', 'Toronto', 5.0, "
          "'Active')"));
  EXPECT_EQ(r.rows_affected, 1u);
  EXPECT_EQ(SnapshotRows(db, "SUPPLIER").size(), rows_before + 1);
  EXPECT_GT(db.catalog().version(), before);
  // The fresh row is queryable and unique-index reachable.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> got,
      RunSql(db, "SELECT SNAME FROM SUPPLIER WHERE SNO = 401"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][0].AsString(), "NEWCO");
}

TEST(DmlTest, InsertWithExplicitColumnsFillsRestWithNull) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK(Dml(&db, "INSERT INTO SUPPLIER (SNO, SNAME) VALUES (402, 'P')")
                .status());
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> got,
      RunSql(db, "SELECT SNO, SNAME FROM SUPPLIER WHERE SNO = 402"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][1].AsString(), "P");
}

TEST(DmlTest, MultiRowInsertRollsBackAtomicallyOnDuplicate) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<Row> before = SnapshotRows(db, "SUPPLIER");
  uint64_t version_before = db.catalog().version();
  // Second row collides with the first INSIDE the same statement: the
  // first row must not survive.
  auto r = Dml(&db,
               "INSERT INTO SUPPLIER VALUES "
               "(410, 'A', 'Toronto', 1.0, 'Active'), "
               "(410, 'B', 'Chicago', 2.0, 'Active')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation)
      << r.status().ToString();
  EXPECT_TRUE(SameRows(before, SnapshotRows(db, "SUPPLIER")));
  EXPECT_EQ(db.catalog().version(), version_before);
}

TEST(DmlTest, InsertDuplicateOfCommittedKeyRollsBack) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<Row> before = SnapshotRows(db, "SUPPLIER");
  // SNO 1 is seeded.
  auto r = Dml(
      &db, "INSERT INTO SUPPLIER VALUES (1, 'X', 'Toronto', 1.0, 'Active')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(SameRows(before, SnapshotRows(db, "SUPPLIER")));
}

TEST(DmlTest, InsertEnforcesNotNullAndCheckConstraints) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<Row> before = SnapshotRows(db, "SUPPLIER");
  // SNO is NOT NULL.
  EXPECT_FALSE(
      Dml(&db,
          "INSERT INTO SUPPLIER (SNAME) VALUES ('GHOST')")
          .ok());
  // CHECK (SNO BETWEEN 1 AND 499).
  EXPECT_FALSE(
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (1000, 'X', 'Toronto', 1.0, "
          "'Active')")
          .ok());
  EXPECT_TRUE(SameRows(before, SnapshotRows(db, "SUPPLIER")));
}

TEST(DmlTest, InsertEnforcesForeignKey) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // Supplier 400 does not exist (100 seeded).
  auto r = Dml(&db,
               "INSERT INTO PARTS VALUES (400, 1, 'WIDGET', 7777, 'RED')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  // After inserting the parent, the same child row commits.
  ASSERT_OK(
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (400, 'P', 'Toronto', 1.0, 'Active')")
          .status());
  EXPECT_OK(
      Dml(&db, "INSERT INTO PARTS VALUES (400, 1, 'WIDGET', 7777, 'RED')")
          .status());
}

TEST(DmlTest, UpdateEvaluatesSourcesAgainstOldRow) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK(
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (420, 'OLD', 'Toronto', 1.0, "
          "'Active')")
          .status());
  ASSERT_OK_AND_ASSIGN(
      txn::DmlResult r,
      Dml(&db, "UPDATE SUPPLIER SET SNAME = SCITY, SCITY = 'Chicago' "
               "WHERE SNO = 420"));
  EXPECT_EQ(r.rows_affected, 1u);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> got,
      RunSql(db, "SELECT SNAME, SCITY FROM SUPPLIER WHERE SNO = 420"));
  ASSERT_EQ(got.size(), 1u);
  // SNAME took the OLD SCITY, not the simultaneously-assigned one.
  EXPECT_EQ(got[0][0].AsString(), "Toronto");
  EXPECT_EQ(got[0][1].AsString(), "Chicago");
}

TEST(DmlTest, UpdateIntoDuplicateKeyRollsBackByteIdentical) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<Row> before = SnapshotRows(db, "SUPPLIER");
  uint64_t version_before = db.catalog().version();
  auto r = Dml(&db, "UPDATE SUPPLIER SET SNO = 1 WHERE SNO = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(SameRows(before, SnapshotRows(db, "SUPPLIER")));
  EXPECT_EQ(db.catalog().version(), version_before);
}

TEST(DmlTest, ZeroRowUpdateAndDeleteDoNotBumpCatalog) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  uint64_t before = db.catalog().version();
  ASSERT_OK_AND_ASSIGN(
      txn::DmlResult u,
      Dml(&db, "UPDATE SUPPLIER SET SNAME = 'Z' WHERE SNO = 499"));
  EXPECT_EQ(u.rows_affected, 0u);
  ASSERT_OK_AND_ASSIGN(txn::DmlResult d,
                       Dml(&db, "DELETE FROM SUPPLIER WHERE SNO = 499"));
  EXPECT_EQ(d.rows_affected, 0u);
  EXPECT_EQ(db.catalog().version(), before);
}

TEST(DmlTest, DeleteOfReferencedParentIsRestricted) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  std::vector<Row> before = SnapshotRows(db, "SUPPLIER");
  auto r = Dml(&db, "DELETE FROM SUPPLIER WHERE SNO = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(SameRows(before, SnapshotRows(db, "SUPPLIER")));
  // Removing the children first unblocks the parent delete.
  ASSERT_OK(Dml(&db, "DELETE FROM PARTS WHERE SNO = 1").status());
  ASSERT_OK(Dml(&db, "DELETE FROM AGENTS WHERE SNO = 1").status());
  ASSERT_OK_AND_ASSIGN(txn::DmlResult d,
                       Dml(&db, "DELETE FROM SUPPLIER WHERE SNO = 1"));
  EXPECT_EQ(d.rows_affected, 1u);
}

TEST(DmlTest, CommitInvalidatesPlanCache) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT DISTINCT SNO FROM SUPPLIER";
  ASSERT_OK_AND_ASSIGN(PreparedQuery cold, optimizer.Prepare(sql));
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_OK_AND_ASSIGN(PreparedQuery warm, optimizer.Prepare(sql));
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_OK(
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (430, 'C', 'Toronto', 1.0, 'Active')")
          .status());
  // The commit bumped Catalog::version(), which the cache key mixes in:
  // the stale entry is unreachable.
  ASSERT_OK_AND_ASSIGN(PreparedQuery after, optimizer.Prepare(sql));
  EXPECT_FALSE(after.cache_hit);
}

TEST(DmlTest, CreateUniqueIndexValidatesExistingRows) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A))"));
  ASSERT_OK(Dml(&db, "INSERT INTO T VALUES (1, 10), (2, 10), (3, 30)")
                .status());
  // Existing duplicate in B: the index must refuse and declare nothing.
  size_t keys_before = (*db.GetTable("T"))->def().keys().size();
  Status st = db.ExecuteDdl("CREATE UNIQUE INDEX UB ON T (B)");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation) << st.ToString();
  EXPECT_EQ((*db.GetTable("T"))->def().keys().size(), keys_before);
  // Deduplicate, retry: the key is declared and enforced from then on.
  ASSERT_OK(Dml(&db, "UPDATE T SET B = 20 WHERE A = 2").status());
  ASSERT_OK(db.ExecuteDdl("CREATE UNIQUE INDEX UB ON T (B)"));
  EXPECT_EQ((*db.GetTable("T"))->def().keys().size(), keys_before + 1);
  auto r = Dml(&db, "INSERT INTO T VALUES (4, 30)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  // Re-declaring the same name or column set is rejected.
  EXPECT_FALSE(db.ExecuteDdl("CREATE UNIQUE INDEX UB ON T (B)").ok());
  EXPECT_FALSE(db.ExecuteDdl("CREATE UNIQUE INDEX UB2 ON T (B)").ok());
  // Bare CREATE INDEX is a parse error by design.
  EXPECT_FALSE(db.ExecuteDdl("CREATE INDEX I ON T (B)").ok());
}

TEST(DmlTest, ContainsKeyValueTracksCommittedDml) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK_AND_ASSIGN(const Table* supplier, db.GetTable("SUPPLIER"));
  Row key(std::vector<Value>{Value::Integer(440)});
  EXPECT_FALSE(supplier->ContainsKeyValue(0, key));
  ASSERT_OK(
      Dml(&db,
          "INSERT INTO SUPPLIER VALUES (440, 'K', 'Toronto', 1.0, 'Active')")
          .status());
  EXPECT_TRUE(supplier->ContainsKeyValue(0, key));
  ASSERT_OK(Dml(&db, "DELETE FROM SUPPLIER WHERE SNO = 440").status());
  EXPECT_FALSE(supplier->ContainsKeyValue(0, key));
}

TEST(DmlTest, DropTablePurgesAdvisorSuggestions) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE DOOMED (A INTEGER NOT NULL)"));
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE KEPT (A INTEGER NOT NULL)"));
  obs::AdvisorStore& store = obs::AdvisorStore::Global();
  store.Clear();
  obs::NearMiss miss;
  miss.table = "DOOMED";
  miss.kind = obs::MissingFactKind::kUniqueKey;
  miss.replay_key_columns = {"A"};
  store.Record(miss, /*fingerprint=*/1, "SELECT DISTINCT A FROM DOOMED");
  miss.table = "KEPT";
  store.Record(miss, /*fingerprint=*/2, "SELECT DISTINCT A FROM KEPT");
  ASSERT_EQ(store.size(), 2u);
  ASSERT_OK(db.ExecuteDdl("DROP TABLE DOOMED"));
  std::vector<obs::AdvisorSuggestion> left = store.Suggestions();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].table, "KEPT");
  store.Clear();
}

TEST(DmlTest, HostVariablesBindByName) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  txn::DmlExecutor executor(&db);
  ASSERT_OK_AND_ASSIGN(
      txn::DmlResult r,
      executor.ExecuteSql(
          "INSERT INTO SUPPLIER VALUES (:sno, :nm, 'Toronto', 1.0, "
          "'Active')",
          {{"SNO", Value::Integer(450)}, {"nm", Value::String("HV")}}));
  EXPECT_EQ(r.rows_affected, 1u);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> got,
      RunSql(db, "SELECT SNAME FROM SUPPLIER WHERE SNO = 450"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][0].AsString(), "HV");
}

TEST(DmlTest, UpdateMayTradeKeyValuesBetweenRows) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER NOT NULL, "
      "C VARCHAR(10), PRIMARY KEY (A), UNIQUE (B))"));
  ASSERT_OK(Dml(&db, "INSERT INTO T VALUES (1, 2, 'x'), (2, 1, 'y')")
                .status());
  // Both keys of both rows change at once; each new value is one the
  // other row gives up in the same statement.
  ASSERT_OK_AND_ASSIGN(txn::DmlResult r,
                       Dml(&db, "UPDATE T SET A = B, B = A"));
  EXPECT_EQ(r.rows_affected, 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> by_a,
                       RunSql(db, "SELECT C FROM T WHERE A = 1"));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> by_b,
                       RunSql(db, "SELECT C FROM T WHERE B = 1"));
  ASSERT_EQ(by_a.size(), 1u);
  ASSERT_EQ(by_b.size(), 1u);
  EXPECT_EQ(by_a[0][0].AsString(), "y");
  EXPECT_EQ(by_b[0][0].AsString(), "x");
  ExpectIndexesMatchRows(*(*db.GetTable("T"))->Snapshot());
}

TEST(DmlTest, UpdateThatCollidesTwoKeysPublishesNothing) {
  Database db;
  MakeTwoKeyTable(&db, 3);
  ASSERT_OK_AND_ASSIGN(const Table* t, db.GetTable("T"));
  TableSnapshot before = t->Snapshot();
  const uint64_t version_before = db.catalog().version();
  // Rows 1 and 2 would both take B = 99.
  auto r = Dml(&db, "UPDATE T SET B = 99 WHERE A < 3");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(t->Snapshot(), before);  // the committed version is untouched
  EXPECT_EQ(db.catalog().version(), version_before);
  EXPECT_FALSE(t->ContainsKeyValue(1, Row({Value::Integer(99)})));
  EXPECT_TRUE(t->ContainsKeyValue(1, Row({Value::Integer(-1)})));
  ExpectIndexesMatchRows(*t->Snapshot());
}

TEST(DmlTest, PinnedSnapshotOutlivesAThousandCommits) {
  Database db;
  MakeTwoKeyTable(&db, 300);
  ASSERT_OK_AND_ASSIGN(const Table* t, db.GetTable("T"));
  TableSnapshot pinned = t->Snapshot();
  const std::vector<Row> original(pinned->rows.begin(), pinned->rows.end());
  txn::DmlExecutor executor(&db);
  for (int i = 0; i < 250; ++i) {
    // Two inserts, a delete that moves the second insert into the first
    // one's slot, and updates of a non-key and of a key column.
    const int a = 1000 + 2 * i;
    char sql[160];
    std::snprintf(sql, sizeof sql,
                  "INSERT INTO T VALUES (%d, %d, 'N'), (%d, %d, 'N')", a, a,
                  a + 1, a + 1);
    ASSERT_OK(executor.ExecuteSql(sql).status());
    std::snprintf(sql, sizeof sql, "DELETE FROM T WHERE A = %d", a);
    ASSERT_OK(executor.ExecuteSql(sql).status());
    std::snprintf(sql, sizeof sql, "UPDATE T SET C = 'U' WHERE A = %d",
                  300 - i);
    ASSERT_OK(executor.ExecuteSql(sql).status());
    std::snprintf(sql, sizeof sql, "UPDATE T SET B = %d WHERE A = %d",
                  20001 + i, 1 + i);
    ASSERT_OK(executor.ExecuteSql(sql).status());
  }
  ASSERT_EQ(pinned->rows.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(pinned->rows[i].NullSafeEquals(original[i])) << i;
  }
  ExpectIndexesMatchRows(*pinned);
  EXPECT_FALSE(pinned->Lookup(0, Row({Value::Integer(1001)})).has_value());
  TableSnapshot current = t->Snapshot();
  EXPECT_EQ(current->rows.size(), 550u);
  EXPECT_TRUE(current->Lookup(0, Row({Value::Integer(1001)})).has_value());
  ExpectIndexesMatchRows(*current);
}

TEST(DmlTest, InsertDeletePairsKeepStorageSizedToLiveRows) {
  Database db;
  MakeTwoKeyTable(&db, 3000);
  txn::DmlExecutor executor(&db);
  // One statement shrinks the table tenfold: the indexes fold their
  // shards back as they empty.
  ASSERT_OK_AND_ASSIGN(txn::DmlResult shrink,
                       executor.ExecuteSql("DELETE FROM T WHERE A > 300"));
  ASSERT_EQ(shrink.rows_affected, 2700u);
  ASSERT_OK_AND_ASSIGN(
      txn::BoundDml insert,
      txn::BindDmlSql(&db, "INSERT INTO T VALUES (:a, :a, 'N')"));
  ASSERT_OK_AND_ASSIGN(txn::BoundDml del,
                       txn::BindDmlSql(&db, "DELETE FROM T WHERE A = :a"));
  // The oldest live row goes each time, so deletes hit the middle of the
  // storage and rows move into the holes.
  std::deque<int64_t> live_keys;
  for (int64_t a = 1; a <= 300; ++a) live_keys.push_back(a);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_OK(executor.Execute(insert, {Value::Integer(1000 + i)}).status());
    live_keys.push_back(1000 + i);
    ASSERT_OK_AND_ASSIGN(
        txn::DmlResult d,
        executor.Execute(del, {Value::Integer(live_keys.front())}));
    ASSERT_EQ(d.rows_affected, 1u);
    live_keys.pop_front();
  }
  TableSnapshot snap = (*db.GetTable("T"))->Snapshot();
  ASSERT_EQ(snap->rows.size(), 300u);
  EXPECT_EQ(snap->rows.num_chunks(),
            (300 + RowStore::kChunkRows - 1) / RowStore::kChunkRows);
  for (const UniqueIndex& index : snap->indexes) {
    EXPECT_EQ(index.size(), 300u);
    EXPECT_LE(index.num_shards(), 2 * 300 / UniqueIndex::kShardEntries + 1);
  }
  std::vector<Row> live;
  for (int64_t a : live_keys) {
    live.push_back(Row({Value::Integer(a), Value::Integer(a),
                        Value::String("N")}));
  }
  EXPECT_TRUE(MultisetEquals(
      std::vector<Row>(snap->rows.begin(), snap->rows.end()), live));
  ExpectIndexesMatchRows(*snap);
}

/// Rows and index entries one statement copied, from the txn.* counters.
struct Copies {
  uint64_t rows = 0;
  uint64_t entries = 0;
};

Copies CopiesOf(Database* db, const std::string& sql, bool commits) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& rows = registry.GetCounter("txn.rows_copied");
  const obs::Counter& entries =
      registry.GetCounter("txn.index_entries_copied");
  const uint64_t rows_before = rows.value();
  const uint64_t entries_before = entries.value();
  Status st = Dml(db, sql).status();
  EXPECT_EQ(st.ok(), commits) << sql << ": " << st.ToString();
  return {rows.value() - rows_before, entries.value() - entries_before};
}

TEST(DmlTest, WriteCopiesDoNotGrowWithTableSize) {
  // write_mix's four statements at 2,000 and 20,000 suppliers (4,000 and
  // 40,000 parts). Copying whole versions made them 4,000 vs 40,000
  // rows; now each is bounded by the chunk and shard constants.
  std::vector<std::array<Copies, 4>> by_size;
  for (size_t suppliers : {size_t{2000}, size_t{20000}}) {
    Database db;
    SupplierSchemaOptions schema;
    schema.max_sno = static_cast<int64_t>(suppliers);
    ASSERT_OK(CreateSupplierSchema(&db, schema));
    SupplierDataOptions data;
    data.num_suppliers = suppliers;
    data.parts_per_supplier = 2;
    data.num_agents = 1000;
    ASSERT_OK(PopulateSupplierDatabase(&db, data));
    by_size.push_back(
        {CopiesOf(&db,
                  "INSERT INTO PARTS VALUES (17, 3, 'PART-NEW', 9000001, "
                  "'RED')",
                  true),
         CopiesOf(&db, "UPDATE SUPPLIER SET BUDGET = 1234.5 WHERE SNO = 17",
                  true),
         CopiesOf(&db, "DELETE FROM PARTS WHERE SNO = 17 AND PNO = 3", true),
         CopiesOf(&db,
                  "INSERT INTO SUPPLIER VALUES (17, 'SUPPLIER-DUP', "
                  "'Toronto', 1.0, 'Active')",
                  false)});
  }
  // A touched shard holds ~kShardEntries entries (up to twice that
  // before its split); a statement may also split or merge one shard.
  const uint64_t per_key = 4 * UniqueIndex::kShardEntries;
  for (const std::array<Copies, 4>& c : by_size) {
    // INSERT clones the partly filled tail chunk and one shard per key.
    EXPECT_LT(c[0].rows, RowStore::kChunkRows);
    EXPECT_LE(c[0].entries, 2 * per_key);
    // UPDATE by key clones the one full chunk holding the row; BUDGET
    // is no key column, so no index entry moves.
    EXPECT_EQ(c[1].rows, RowStore::kChunkRows);
    EXPECT_EQ(c[1].entries, 0u);
    // DELETE by key clones the hole's chunk and the tail chunk.
    EXPECT_LE(c[2].rows, 2 * RowStore::kChunkRows);
    EXPECT_LE(c[2].entries, 2 * per_key);
    // The rejected duplicate probes the committed index and copies
    // nothing.
    EXPECT_EQ(c[3].rows, 0u);
    EXPECT_EQ(c[3].entries, 0u);
  }
}

}  // namespace
}  // namespace uniqopt
