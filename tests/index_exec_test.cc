// Index-backed execution: unique-index point lookups and build-free
// unique-index joins must (a) be chosen exactly when a declared key is
// covered, (b) produce the same rows as the scan-based lowering, and
// (c) surface in EXPLAIN ANALYZE names, ExecStats::index_probes, and
// the plan-cache salt. A prepared entry keeps its lowering decisions:
// Execute only builds operators from them while the plan, the physical
// options and the catalog version still match, and a built tree keeps
// no table version alive once it is gone.

#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/index_exec.h"
#include "obs/metrics.h"
#include "txn/dml_executor.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

#include "test_util.h"

namespace uniqopt {
namespace {

PhysicalOptions NoIndexes() {
  PhysicalOptions p;
  p.use_indexes = false;
  return p;
}

/// Lowerings so far: PhysicalPlan::Decide calls, process-wide.
uint64_t Lowerings() {
  return obs::MetricsRegistry::Global().GetCounter("exec.lowerings").value();
}

/// An EXPLAIN ANALYZE operator tree with the timings cut off each line.
std::string MaskedProfile(const std::string& report) {
  return std::regex_replace(ProfileSection(report), std::regex(" time=.*"),
                            "");
}

TEST(IndexExecTest, PointLookupProbesInsteadOfScanning) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  const std::string sql = "SELECT SNAME FROM SUPPLIER WHERE SNO = 7";
  ExecStats with_index;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> fast,
                       RunSql(db, sql, {}, {}, &with_index));
  ExecStats without_index;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> slow,
                       RunSql(db, sql, {}, NoIndexes(), &without_index));
  EXPECT_TRUE(MultisetEquals(fast, slow));
  EXPECT_EQ(with_index.index_probes, 1u);
  EXPECT_EQ(with_index.rows_scanned, 0u);
  EXPECT_EQ(without_index.index_probes, 0u);
  EXPECT_GT(without_index.rows_scanned, 0u);
}

TEST(IndexExecTest, LookupHonorsResidualConjuncts) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // SNO = 7 covers the key; the SCITY conjunct stays residual and can
  // reject the single matched row.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> match,
      RunSql(db,
             "SELECT SNO FROM SUPPLIER WHERE SNO = 7 AND SCITY <> 'xx'"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> reject,
      RunSql(db,
             "SELECT SNO FROM SUPPLIER WHERE SNO = 7 AND SNAME = 'no'"));
  EXPECT_EQ(match.size(), 1u);
  EXPECT_TRUE(reject.empty());
}

TEST(IndexExecTest, CompositeKeyNeedsEveryColumn) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // PARTS PK is (SNO, PNO): both present → probe; one missing → scan.
  ExecStats covered;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> one,
      RunSql(db, "SELECT PNAME FROM PARTS WHERE PNO = 2 AND SNO = 3", {},
             {}, &covered));
  EXPECT_EQ(covered.index_probes, 1u);
  EXPECT_EQ(one.size(), 1u);
  ExecStats partial;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> many,
      RunSql(db, "SELECT PNAME FROM PARTS WHERE SNO = 3", {}, {},
             &partial));
  EXPECT_EQ(partial.index_probes, 0u);
  EXPECT_GT(partial.rows_scanned, 0u);
  EXPECT_GT(many.size(), 1u);
}

TEST(IndexExecTest, HostVariableProbeResolvesPerExecution) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  const std::string sql = "SELECT SNAME FROM SUPPLIER WHERE SNO = :n";
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> a,
      RunSql(db, sql, {{"n", Value::Integer(5)}}, {}, &stats));
  EXPECT_EQ(stats.index_probes, 1u);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b,
                       RunSql(db, sql, {{"n", Value::Integer(6)}}));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_FALSE(a[0].NullSafeEquals(b[0]));
  // NULL probe: SQL `=` matches nothing (no probe is even issued).
  ExecStats null_stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> none,
      RunSql(db, sql, {{"n", Value::Null(TypeId::kInteger)}}, {},
             &null_stats));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(null_stats.index_probes, 0u);
}

TEST(IndexExecTest, DoubleProbeCoercesAgainstIntegerKey) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> whole,
      RunSql(db, "SELECT SNO FROM SUPPLIER WHERE SNO = :n",
             {{"n", Value::Double(7.0)}}));
  EXPECT_EQ(whole.size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> frac,
      RunSql(db, "SELECT SNO FROM SUPPLIER WHERE SNO = :n",
             {{"n", Value::Double(7.5)}}));
  EXPECT_TRUE(frac.empty());
}

TEST(IndexExecTest, UniqueIndexJoinSkipsBuildPhase) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  const std::string sql =
      "SELECT P.PNAME, S.SNAME FROM PARTS P, SUPPLIER S "
      "WHERE P.SNO = S.SNO AND P.COLOR = 'RED'";
  ExecStats with_index;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> fast,
                       RunSql(db, sql, {}, {}, &with_index));
  ExecStats without_index;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> slow,
                       RunSql(db, sql, {}, NoIndexes(), &without_index));
  EXPECT_TRUE(MultisetEquals(fast, slow));
  EXPECT_FALSE(fast.empty());
  EXPECT_GT(with_index.index_probes, 0u);
  EXPECT_EQ(with_index.hash_build_rows, 0u);
  EXPECT_GT(without_index.hash_build_rows, 0u);
  EXPECT_EQ(without_index.index_probes, 0u);
}

TEST(IndexExecTest, JoinFallsBackWhenBuildKeysAreNotAKey) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // Right side PARTS joined on SNO only — (SNO) is not a key of PARTS,
  // so the classic hash build must be kept (one supplier has many
  // parts; a unique probe would drop rows).
  const std::string sql =
      "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO";
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       RunSql(db, sql, {}, {}, &stats));
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_GT(stats.hash_build_rows, 0u);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> baseline,
                       RunSql(db, sql, {}, NoIndexes()));
  EXPECT_TRUE(MultisetEquals(rows, baseline));
}

TEST(IndexExecTest, JoinNullKeysNeverMatch) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE L (K INTEGER, V INTEGER NOT NULL, PRIMARY KEY (V))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE R (K INTEGER NOT NULL, W INTEGER, PRIMARY KEY (K))"));
  txn::DmlExecutor executor(&db);
  ASSERT_OK(executor.ExecuteSql("INSERT INTO L VALUES (1, 1), (2, 2)")
                .status());
  ASSERT_OK(
      executor.ExecuteSql("INSERT INTO L (V) VALUES (3)").status());
  ASSERT_OK(executor.ExecuteSql("INSERT INTO R VALUES (1, 10), (2, 20)")
                .status());
  const std::string sql =
      "SELECT L.V, R.W FROM L, R WHERE L.K = R.K";
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       RunSql(db, sql, {}, {}, &stats));
  EXPECT_EQ(rows.size(), 2u);  // the NULL-keyed L row joins nothing
  EXPECT_EQ(stats.index_probes, 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> baseline,
                       RunSql(db, sql, {}, NoIndexes()));
  EXPECT_TRUE(MultisetEquals(rows, baseline));
}

TEST(IndexExecTest, MatchersRequireExactKeyCover) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK_AND_ASSIGN(const Table* parts, db.GetTable("PARTS"));
  const TableDef& def = parts->def();
  // Join on (SNO, PNO) — exactly the PK → match, key order normalized.
  std::optional<IndexJoinMatch> hit =
      MatchUniqueIndexJoin(def, /*left_keys=*/{5, 3},
                           /*right_keys=*/{1, 0});  // PNO, SNO
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->left_keys, (std::vector<size_t>{3, 5}));  // SNO, PNO
  // Subset of the key → no match.
  EXPECT_FALSE(MatchUniqueIndexJoin(def, {3}, {0}).has_value());
  // Duplicate right column → no match (two constraints on one column).
  EXPECT_FALSE(MatchUniqueIndexJoin(def, {3, 5}, {0, 0}).has_value());
  // Superset of every key → no match.
  EXPECT_FALSE(
      MatchUniqueIndexJoin(def, {3, 5, 6}, {0, 1, 2}).has_value());
  // UNIQUE (OEM_PNO) is also probeable.
  EXPECT_TRUE(MatchUniqueIndexJoin(def, {2}, {3}).has_value());
}

TEST(IndexExecTest, ExplainAnalyzeNamesTheIndexOperators) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery point,
      optimizer.Prepare("SELECT SNAME FROM SUPPLIER WHERE SNO = 3"));
  ASSERT_OK_AND_ASSIGN(std::string lookup_report,
                       optimizer.ExplainAnalyze(point));
  EXPECT_NE(lookup_report.find("IndexLookup("), std::string::npos)
      << lookup_report;
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery join,
      optimizer.Prepare("SELECT P.PNAME, S.SNAME FROM PARTS P, SUPPLIER S "
                        "WHERE P.SNO = S.SNO"));
  ASSERT_OK_AND_ASSIGN(std::string join_report,
                       optimizer.ExplainAnalyze(join));
  EXPECT_NE(join_report.find("UniqueIndexJoin("), std::string::npos)
      << join_report;
}

TEST(IndexExecTest, KeyedJoinInputProbesItsIndex) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // A.ANO = :A covers AGENTS' key: the probe side of the unique-index
  // join is itself one lookup, so nothing is scanned.
  const std::string sql =
      "SELECT A.ANAME, S.SNAME FROM AGENTS A, SUPPLIER S "
      "WHERE A.ANO = :A AND S.SNO = A.SNO";
  const ParamBindings params = {{"A", Value::Integer(17)}};
  ExecStats with_index;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> fast,
                       RunSql(db, sql, params, {}, &with_index));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> slow,
                       RunSql(db, sql, params, NoIndexes()));
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_TRUE(MultisetEquals(fast, slow));
  EXPECT_EQ(with_index.rows_scanned, 0u);
  EXPECT_EQ(with_index.index_probes, 2u);

  // The hash-join path: AGENTS is the build side (A.SNO is no key of
  // AGENTS), and its keyed filter turns the build into one probe.
  const std::string hash_sql =
      "SELECT A.ANAME, S.SNAME FROM SUPPLIER S, AGENTS A "
      "WHERE S.SNO = A.SNO AND A.ANO = :A";
  ExecStats hash_stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> hashed,
                       RunSql(db, hash_sql, params, {}, &hash_stats));
  EXPECT_TRUE(MultisetEquals(hashed, slow));
  EXPECT_EQ(hash_stats.index_probes, 1u);
  EXPECT_EQ(hash_stats.hash_build_rows, 1u);

  // EXPLAIN ANALYZE lists the lookup as its own operator.
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(PreparedQuery join, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(std::string report,
                       optimizer.ExplainAnalyze(join, params));
  EXPECT_NE(report.find("IndexLookup(pk_AGENTS_ano)"), std::string::npos)
      << report;
  EXPECT_EQ(report.find("TableScan"), std::string::npos) << report;
}

TEST(IndexExecTest, UniqueIndexJoinMatchesNumericKeysAcrossTypes) {
  // The probe value's type may differ from the key column's: INTEGER 1
  // joins DOUBLE 1.0, and DOUBLE 1.5 joins no INTEGER key — through the
  // index join (ProbeKey's coercion) exactly as through the hash join.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE D (X DOUBLE, N INTEGER NOT NULL, PRIMARY KEY (N))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE I (K INTEGER NOT NULL, W INTEGER, PRIMARY KEY (K))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE F (F DOUBLE NOT NULL, W INTEGER, PRIMARY KEY (F))"));
  txn::DmlExecutor executor(&db);
  ASSERT_OK(executor
                .ExecuteSql("INSERT INTO D VALUES (1.0, 1), (1.5, 2), "
                            "(2.0, 3)")
                .status());
  ASSERT_OK(executor.ExecuteSql("INSERT INTO D (N) VALUES (4)").status());
  ASSERT_OK(
      executor.ExecuteSql("INSERT INTO I VALUES (1, 10), (3, 30)").status());
  ASSERT_OK(executor.ExecuteSql("INSERT INTO F VALUES (1.0, 100), (2.5, 250)")
                .status());
  for (size_t batch_size : {size_t{0}, size_t{1024}}) {
    PhysicalOptions physical;
    physical.batch_size = batch_size;
    PhysicalOptions hashed = NoIndexes();
    hashed.batch_size = batch_size;
    // DOUBLE probes an INTEGER key: only 1.0 finds a row.
    const std::string to_int =
        "SELECT D.X, I.W FROM D, I WHERE D.X = I.K";
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         RunSql(db, to_int, {}, physical, &stats));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1].AsInteger(), 10);
    EXPECT_EQ(stats.index_probes, 2u);  // 1.0 and 2.0; not 1.5, not NULL
    ASSERT_OK_AND_ASSIGN(std::vector<Row> baseline,
                         RunSql(db, to_int, {}, hashed));
    EXPECT_TRUE(MultisetEquals(rows, baseline));
    // INTEGER probes a DOUBLE key: 1 finds 1.0, 3 finds nothing.
    const std::string to_double =
        "SELECT I.K, F.W FROM I, F WHERE I.K = F.F";
    ASSERT_OK_AND_ASSIGN(rows, RunSql(db, to_double, {}, physical, &stats));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1].AsInteger(), 100);
    EXPECT_GT(stats.index_probes, 0u);
    ASSERT_OK_AND_ASSIGN(baseline, RunSql(db, to_double, {}, hashed));
    EXPECT_TRUE(MultisetEquals(rows, baseline));
  }
}

TEST(IndexExecTest, UniqueIndexJoinEmitsTheProjectionItself) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  // Columns interleaved from both sides plus a crossing non-equi
  // residual: the join builds each output row from the probe and the
  // indexed row directly, in either execution mode.
  const std::string sql =
      "SELECT S.SNAME, P.PNO, S.SNO, P.PNAME FROM PARTS P, SUPPLIER S "
      "WHERE P.SNO = S.SNO AND P.PNO < S.SNO";
  ASSERT_OK_AND_ASSIGN(std::vector<Row> baseline,
                       RunSql(db, sql, {}, NoIndexes()));
  EXPECT_FALSE(baseline.empty());
  for (size_t batch_size : {size_t{0}, size_t{1024}}) {
    PhysicalOptions physical;
    physical.batch_size = batch_size;
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         RunSql(db, sql, {}, physical, &stats));
    EXPECT_TRUE(MultisetEquals(rows, baseline));
    EXPECT_GT(stats.index_probes, 0u);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].size(), 4u);
  }
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(PreparedQuery join, optimizer.Prepare(sql));
  ASSERT_OK_AND_ASSIGN(std::string report, optimizer.ExplainAnalyze(join));
  const std::string profile = ProfileSection(report);
  EXPECT_NE(profile.find("\n  UniqueIndexJoin(pk_SUPPLIER_sno)"),
            std::string::npos)
      << report;
  EXPECT_EQ(profile.find("Project"), std::string::npos) << report;
}

TEST(IndexExecTest, PreparedEntryLowersOnce) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  const std::string sql = "SELECT SNAME FROM SUPPLIER WHERE SNO = :S";
  uint64_t before = Lowerings();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> entry,
                       optimizer.PrepareShared(sql));
  EXPECT_EQ(Lowerings() - before, 1u);  // decided once, at prepare time
  before = Lowerings();
  for (int64_t sno = 1; sno <= 5; ++sno) {
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(
        std::vector<Row> rows,
        optimizer.Execute(*entry, {{"S", Value::Integer(sno)}}, {}, &stats));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(stats.index_probes, 1u);
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> hit,
                         optimizer.PrepareShared(sql));
    EXPECT_EQ(hit.get(), entry.get());
  }
  EXPECT_EQ(Lowerings() - before, 0u);  // hits only build operators
}

TEST(IndexExecTest, NonDefaultOptionsDecideAfresh) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> entry,
      optimizer.PrepareShared("SELECT P.PNAME, S.SNAME FROM PARTS P, "
                              "SUPPLIER S WHERE P.SNO = S.SNO AND "
                              "P.COLOR = 'RED' AND S.SNO = :S"));
  const ParamBindings params = {{"S", Value::Integer(3)}};
  PhysicalOptions tuple_at_a_time;
  tuple_at_a_time.batch_size = 0;
  for (const PhysicalOptions& physical : {NoIndexes(), tuple_at_a_time}) {
    ExecContext ctx;
    ctx.params = {Value::Integer(3)};
    ASSERT_OK_AND_ASSIGN(
        std::vector<Row> expected,
        ExecutePlan(entry->optimized_plan, db, &ctx, physical));
    const uint64_t before = Lowerings();
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(
        std::vector<Row> rows,
        optimizer.Execute(*entry, params, physical, &stats));
    EXPECT_EQ(Lowerings() - before, 1u);
    EXPECT_TRUE(MultisetEquals(rows, expected));
    EXPECT_FALSE(rows.empty());
    EXPECT_EQ(stats.index_probes, ctx.stats.index_probes);
    EXPECT_EQ(stats.rows_scanned, ctx.stats.rows_scanned);
    if (!physical.use_indexes) {
      EXPECT_EQ(stats.index_probes, 0u);
    }
  }
}

TEST(IndexExecTest, ReplacedPlanDecidesAfresh) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery edited,
      optimizer.Prepare("SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, "
                        "PARTS P WHERE S.SNO = P.SNO"));
  ASSERT_FALSE(edited.rewrites.empty());  // the DISTINCT was removed
  // The stored decisions lowered the optimized plan, not this one.
  edited.optimized_plan = edited.original_plan;
  const uint64_t before = Lowerings();
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       optimizer.Execute(edited, {}, {}, &stats));
  EXPECT_EQ(Lowerings() - before, 1u);
  EXPECT_GT(stats.rows_sorted, 0u);  // the original plan's SortDistinct
  EXPECT_FALSE(rows.empty());
}

TEST(IndexExecTest, HeldQueryDecidesAfreshAfterACommit) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> held,
      optimizer.PrepareShared("SELECT SNAME FROM SUPPLIER WHERE SNO = :S"));
  const ParamBindings params = {{"S", Value::Integer(7)}};
  txn::DmlExecutor executor(&db);
  ASSERT_OK(executor
                .ExecuteSql("UPDATE SUPPLIER SET SNAME = 'Renamed' "
                            "WHERE SNO = 7")
                .status());
  const uint64_t before = Lowerings();
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       optimizer.Execute(*held, params));
  EXPECT_EQ(Lowerings() - before, 1u);  // the catalog moved on
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "Renamed");
}

TEST(IndexExecTest, HeldQueryDecidesAfreshAfterCreateUniqueIndex) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> held,
      optimizer.PrepareShared("SELECT ANO FROM AGENTS WHERE ANAME = :N"));
  const ParamBindings params = {{"N", Value::String("AGENT-5")}};
  ExecStats scanned;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> before_index,
                       optimizer.Execute(*held, params, {}, &scanned));
  EXPECT_EQ(scanned.index_probes, 0u);
  EXPECT_GT(scanned.rows_scanned, 0u);
  ASSERT_OK(db.ExecuteDdl("CREATE UNIQUE INDEX agents_aname ON AGENTS "
                          "(ANAME)"));
  const uint64_t before = Lowerings();
  ExecStats probed;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> after_index,
                       optimizer.Execute(*held, params, {}, &probed));
  EXPECT_EQ(Lowerings() - before, 1u);
  EXPECT_EQ(probed.index_probes, 1u);  // the new key is an access path
  EXPECT_EQ(probed.rows_scanned, 0u);
  ASSERT_EQ(after_index.size(), 1u);
  EXPECT_TRUE(MultisetEquals(after_index, before_index));
}

TEST(IndexExecTest, ExecutingACachedEntryKeepsNoTableVersionAlive) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(const Table* supplier, db.GetTable("SUPPLIER"));
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> entry,
      optimizer.PrepareShared("SELECT SNAME FROM SUPPLIER WHERE SNO = :S"));
  std::weak_ptr<const TableVersion> version = supplier->Snapshot();
  for (int64_t sno = 1; sno <= 3; ++sno) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<Row> rows,
        optimizer.Execute(*entry, {{"S", Value::Integer(sno)}}));
    ASSERT_EQ(rows.size(), 1u);
  }
  EXPECT_FALSE(version.expired());  // still the committed version
  txn::DmlExecutor executor(&db);
  ASSERT_OK(executor
                .ExecuteSql("UPDATE SUPPLIER SET SNAME = 'Renamed' "
                            "WHERE SNO = 2")
                .status());
  EXPECT_TRUE(version.expired());
}

TEST(IndexExecTest, CachedEntryProfilesTheSameOperatorTree) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  struct Case {
    std::string sql;
    ParamBindings params;
    std::string tree;
  };
  const std::vector<Case> cases = {
      {"SELECT SNAME, SCITY, BUDGET FROM SUPPLIER WHERE SNO = :S",
       {{"S", Value::Integer(7)}},
       "-- execution profile --\n"
       "  Project  rows_in=1 rows_out=1\n"
       "    IndexLookup(pk_SUPPLIER_sno)  rows_in=0 rows_out=1\n"},
      {"SELECT A.ANAME, S.SNAME FROM AGENTS A, SUPPLIER S "
       "WHERE A.ANO = :A AND S.SNO = A.SNO",
       {{"A", Value::Integer(17)}},
       "-- execution profile --\n"
       "  UniqueIndexJoin(pk_SUPPLIER_sno)  rows_in=1 rows_out=1\n"
       "    IndexLookup(pk_AGENTS_ano)  rows_in=0 rows_out=1\n"},
      {"SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
       {},
       "-- execution profile --\n"
       "  HashJoin  rows_in=330 rows_out=230\n"
       "    TableScan  rows_in=0 rows_out=100\n"
       "    Filter  rows_in=1000 rows_out=230\n"
       "      TableScan  rows_in=0 rows_out=1000\n"},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PreparedQuery> entry,
                         optimizer.PrepareShared(c.sql));
    // The first run builds from the decisions the prepare stored, the
    // second from the entry a hit serves; both equal a fresh lowering's.
    for (int run = 0; run < 2; ++run) {
      const uint64_t before = Lowerings();
      ASSERT_OK_AND_ASSIGN(std::string report,
                           optimizer.ExplainAnalyze(*entry, c.params));
      EXPECT_EQ(Lowerings() - before, 0u);
      EXPECT_EQ(MaskedProfile(report), c.tree) << report;
    }
    PreparedQuery fresh = *entry;
    fresh.physical = nullptr;
    ASSERT_OK_AND_ASSIGN(std::string report,
                         optimizer.ExplainAnalyze(fresh, c.params));
    EXPECT_EQ(MaskedProfile(report), c.tree) << report;
  }
}

TEST(IndexExecTest, CacheSaltSeparatesIndexModes) {
  PhysicalOptions on;
  PhysicalOptions off;
  off.use_indexes = false;
  EXPECT_NE(on.CacheSalt(), off.CacheSalt());
}

}  // namespace
}  // namespace uniqopt
