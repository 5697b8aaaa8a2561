#include <gtest/gtest.h>

#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(MakeTestSupplierDatabase(&db_)); }

  Database db_;
};

TEST_F(ExecTest, ScanAll) {
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       RunSql(db_, "SELECT * FROM SUPPLIER"));
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0].size(), 5u);
}

TEST_F(ExecTest, FilterByConstant) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT SNO FROM SUPPLIER WHERE SNO = 7"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInteger(), 7);
}

TEST_F(ExecTest, HostVariableBinding) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT PNO FROM PARTS WHERE SNO = :S",
             {{"S", Value::Integer(3)}}));
  EXPECT_EQ(rows.size(), 10u);  // parts_per_supplier
}

TEST_F(ExecTest, JoinMatchesHashAndNestedLoop) {
  const char* sql =
      "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
  PhysicalOptions hash;
  hash.join = PhysicalOptions::JoinStrategy::kHash;
  PhysicalOptions nl;
  nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> hash_rows, RunSql(db_, sql, {}, hash));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> nl_rows, RunSql(db_, sql, {}, nl));
  EXPECT_FALSE(hash_rows.empty());
  EXPECT_TRUE(MultisetEquals(hash_rows, nl_rows));
}

TEST_F(ExecTest, DistinctSortAndHashAgree) {
  const char* sql = "SELECT DISTINCT SNAME FROM SUPPLIER";
  PhysicalOptions sort;
  sort.distinct = PhysicalOptions::DistinctStrategy::kSort;
  PhysicalOptions hash;
  hash.distinct = PhysicalOptions::DistinctStrategy::kHash;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, RunSql(db_, sql, {}, sort));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, RunSql(db_, sql, {}, hash));
  EXPECT_TRUE(MultisetEquals(a, b));
  EXPECT_FALSE(HasDuplicates(a));
  // With the duplicate-name pool there must be fewer names than rows.
  EXPECT_LT(a.size(), 100u);
}

TEST_F(ExecTest, DistinctVersusAll) {
  ASSERT_OK_AND_ASSIGN(std::vector<Row> all,
                       RunSql(db_, "SELECT SNAME FROM SUPPLIER"));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> dist,
                       RunSql(db_, "SELECT DISTINCT SNAME FROM SUPPLIER"));
  EXPECT_EQ(all.size(), 100u);
  EXPECT_LT(dist.size(), all.size());
}

TEST_F(ExecTest, ExistsSemanticsMatchJoinCount) {
  // Suppliers with at least one red part (Example 8's query).
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> exists_rows,
      RunSql(db_,
             "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS "
             "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
             "P.COLOR = 'RED')"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> distinct_join_rows,
      RunSql(db_,
             "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P "
             "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"));
  EXPECT_TRUE(MultisetEquals(exists_rows, distinct_join_rows))
      << RowsToString(exists_rows);
  EXPECT_FALSE(HasDuplicates(exists_rows));
}

TEST_F(ExecTest, NotExists) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> without,
      RunSql(db_,
             "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS "
             "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
             "P.COLOR = 'RED')"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> with,
      RunSql(db_,
             "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS "
             "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
             "P.COLOR = 'RED')"));
  EXPECT_EQ(without.size() + with.size(), 100u);
}

TEST_F(ExecTest, ExistsHashAndNestedLoopAgree) {
  const char* sql =
      "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = :PN)";
  PhysicalOptions hash;
  hash.join = PhysicalOptions::JoinStrategy::kHash;
  PhysicalOptions nl;
  nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
  ParamBindings params = {{"PN", Value::Integer(4)}};
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, RunSql(db_, sql, params, hash));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, RunSql(db_, sql, params, nl));
  EXPECT_TRUE(MultisetEquals(a, b));
  EXPECT_EQ(a.size(), 100u);  // every supplier has a part numbered 4
}

TEST_F(ExecTest, InSubqueryDesugarsToExists) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> in_rows,
      RunSql(db_,
             "SELECT A.ANO FROM AGENTS A WHERE A.SNO IN "
             "(SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto')"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> exists_rows,
      RunSql(db_,
             "SELECT A.ANO FROM AGENTS A WHERE EXISTS "
             "(SELECT * FROM SUPPLIER S WHERE S.SNO = A.SNO AND "
             "S.SCITY = 'Toronto')"));
  EXPECT_TRUE(MultisetEquals(in_rows, exists_rows));
}

TEST_F(ExecTest, IntersectDistinctEliminatesDuplicates) {
  // Supplier numbers that both supply parts and have agents.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_,
             "SELECT SNO FROM PARTS INTERSECT SELECT SNO FROM AGENTS"));
  EXPECT_FALSE(HasDuplicates(rows));
  EXPECT_FALSE(rows.empty());
}

TEST_F(ExecTest, IntersectAllKeepsMinimumCounts) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE L (X INTEGER)"));
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE R (X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * l, db.GetTable("L"));
  ASSERT_OK_AND_ASSIGN(Table * r, db.GetTable("R"));
  // L: 1×3, 2×1;  R: 1×2, 2×2, 3×1.
  for (int i = 0; i < 3; ++i) ASSERT_OK(l->InsertValues({Value::Integer(1)}));
  ASSERT_OK(l->InsertValues({Value::Integer(2)}));
  for (int i = 0; i < 2; ++i) ASSERT_OK(r->InsertValues({Value::Integer(1)}));
  for (int i = 0; i < 2; ++i) ASSERT_OK(r->InsertValues({Value::Integer(2)}));
  ASSERT_OK(r->InsertValues({Value::Integer(3)}));

  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> all,
      RunSql(db, "SELECT X FROM L INTERSECT ALL SELECT X FROM R"));
  // min(3,2)=2 ones + min(1,2)=1 two.
  ASSERT_EQ(all.size(), 3u);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> dist,
      RunSql(db, "SELECT X FROM L INTERSECT SELECT X FROM R"));
  EXPECT_EQ(dist.size(), 2u);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> except_all,
      RunSql(db, "SELECT X FROM L EXCEPT ALL SELECT X FROM R"));
  // max(3-2,0)=1 one + max(1-2,0)=0 twos.
  ASSERT_EQ(except_all.size(), 1u);
  EXPECT_EQ(except_all[0][0].AsInteger(), 1);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> except_dist,
      RunSql(db, "SELECT X FROM L EXCEPT SELECT X FROM R"));
  EXPECT_TRUE(except_dist.empty());
}

TEST_F(ExecTest, IntersectMatchesNullsNullSafe) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE L (X INTEGER)"));
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE R (X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * l, db.GetTable("L"));
  ASSERT_OK_AND_ASSIGN(Table * r, db.GetTable("R"));
  ASSERT_OK(l->InsertValues({Value::Null(TypeId::kInteger)}));
  ASSERT_OK(l->InsertValues({Value::Integer(1)}));
  ASSERT_OK(r->InsertValues({Value::Null(TypeId::kInteger)}));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db, "SELECT X FROM L INTERSECT SELECT X FROM R"));
  // §5.3: INTERSECT equates NULL with NULL.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST_F(ExecTest, SortMergeIntersectAgreesWithHash) {
  const char* sql = "SELECT SNO FROM PARTS INTERSECT SELECT SNO FROM AGENTS";
  PhysicalOptions hash;
  PhysicalOptions merge;
  merge.sort_merge_intersect = true;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, RunSql(db_, sql, {}, hash));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, RunSql(db_, sql, {}, merge));
  EXPECT_TRUE(MultisetEquals(a, b));
}

TEST_F(ExecTest, ThreeValuedLogicInWhere) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (X INTEGER, Y INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  ASSERT_OK(t->InsertValues({Value::Integer(1), Value::Null(TypeId::kInteger)}));
  ASSERT_OK(t->InsertValues({Value::Integer(2), Value::Integer(2)}));
  // X = Y is UNKNOWN for the NULL row ⇒ excluded.
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       RunSql(db, "SELECT X FROM T WHERE X = Y"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInteger(), 2);
  // NOT (X = Y) is also UNKNOWN for the NULL row ⇒ still excluded.
  ASSERT_OK_AND_ASSIGN(std::vector<Row> neg,
                       RunSql(db, "SELECT X FROM T WHERE NOT (X = Y)"));
  EXPECT_TRUE(neg.empty());
  // IS NULL is two-valued.
  ASSERT_OK_AND_ASSIGN(std::vector<Row> isnull,
                       RunSql(db, "SELECT X FROM T WHERE Y IS NULL"));
  ASSERT_EQ(isnull.size(), 1u);
  EXPECT_EQ(isnull[0][0].AsInteger(), 1);
}

TEST_F(ExecTest, DistinctTreatsNullsEqual) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  ASSERT_OK(t->InsertValues({Value::Null(TypeId::kInteger)}));
  ASSERT_OK(t->InsertValues({Value::Null(TypeId::kInteger)}));
  ASSERT_OK(t->InsertValues({Value::Integer(1)}));
  // DISTINCT treats NULL = NULL as true (§3.1): two NULLs collapse.
  for (auto strategy : {PhysicalOptions::DistinctStrategy::kSort,
                        PhysicalOptions::DistinctStrategy::kHash}) {
    PhysicalOptions opts;
    opts.distinct = strategy;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         RunSql(db, "SELECT DISTINCT X FROM T", {}, opts));
    EXPECT_EQ(rows.size(), 2u);
  }
}

TEST_F(ExecTest, LargeIntegersMatchEqualDoublesUnderEveryStrategy) {
  // INTEGER 10^15 equals DOUBLE 1e15 under SQL `=` and `=!`, so hashing
  // operators must file both in one bucket, like 3 and 3.0. No double
  // holds 2^53 + 1, so it equals nothing in B, although converting it to
  // double gives 2^53.0: every strategy, and the probe of B's key index,
  // must find the one match 2^53 = 2^53.0 and no other.
  struct Fixture {
    const char* b_ddl;
    std::vector<int64_t> a;
    std::vector<int64_t> b;  // stored as doubles
    size_t matches;
  };
  const int64_t two_53 = int64_t{1} << 53;
  const std::vector<Fixture> fixtures = {
      {"CREATE TABLE B (Y DOUBLE)",
       {3, 1000000000000000, 4000000000000000},
       {3, 1000000000000000, 4000000000000000},
       3},
      {"CREATE TABLE B (Y DOUBLE NOT NULL, PRIMARY KEY (Y))",
       {two_53, two_53 + 1},
       {two_53},
       1},
  };
  for (const Fixture& f : fixtures) {
    Database db;
    ASSERT_OK(db.ExecuteDdl("CREATE TABLE A (X INTEGER)"));
    ASSERT_OK(db.ExecuteDdl(f.b_ddl));
    ASSERT_OK_AND_ASSIGN(Table * a, db.GetTable("A"));
    ASSERT_OK_AND_ASSIGN(Table * b, db.GetTable("B"));
    for (int64_t x : f.a) ASSERT_OK(a->InsertValues({Value::Integer(x)}));
    for (int64_t y : f.b) {
      ASSERT_OK(b->InsertValues({Value::Double(static_cast<double>(y))}));
    }
    const size_t m = f.matches;
    const size_t rest = f.a.size() - m;
    const std::vector<std::pair<const char*, size_t>> queries = {
        {"SELECT A.X, B.Y FROM A, B WHERE A.X = B.Y", m},
        {"SELECT X FROM A WHERE EXISTS (SELECT * FROM B WHERE A.X = B.Y)", m},
        {"SELECT X FROM A WHERE NOT EXISTS "
         "(SELECT * FROM B WHERE A.X = B.Y)",
         rest},
        {"SELECT X FROM A INTERSECT SELECT Y FROM B", m},
        {"SELECT X FROM A INTERSECT ALL SELECT Y FROM B", m},
        {"SELECT X FROM A EXCEPT SELECT Y FROM B", rest},
    };
    for (auto join : {PhysicalOptions::JoinStrategy::kHash,
                      PhysicalOptions::JoinStrategy::kNestedLoop}) {
      for (bool sort_merge : {false, true}) {
        for (bool use_indexes : {false, true}) {
          PhysicalOptions opts;
          opts.join = join;
          opts.sort_merge_intersect = sort_merge;
          opts.use_indexes = use_indexes;
          for (const auto& [sql, expected] : queries) {
            ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                                 RunSql(db, sql, {}, opts));
            EXPECT_EQ(rows.size(), expected)
                << sql << " on " << f.b_ddl << " nested_loop="
                << (join == PhysicalOptions::JoinStrategy::kNestedLoop)
                << " sort_merge=" << sort_merge
                << " use_indexes=" << use_indexes;
          }
        }
      }
    }
  }
}

TEST_F(ExecTest, OutOfRangeNumbersMatchNoKey) {
  // A literal at int64's limit, one beyond it, and host variables at and
  // beyond the limits, compared with an INTEGER key: no row matches, and
  // neither the prepare (the equivalence prover's test points) nor the
  // index probe converts out of range.
  Optimizer optimizer(&db_);
  const std::vector<std::pair<std::string, ParamBindings>> cases = {
      {"SELECT SNAME FROM SUPPLIER WHERE SNO = 9223372036854775807", {}},
      {"SELECT SNAME FROM SUPPLIER WHERE SNO = 10000000000000000000.0", {}},
      {"SELECT SNAME FROM SUPPLIER WHERE SNO = :S",
       {{"S", Value::Double(1e19)}}},
      {"SELECT SNAME FROM SUPPLIER WHERE SNO = :S",
       {{"S", Value::Double(-1e19)}}},
      {"SELECT SNAME FROM SUPPLIER WHERE SNO = :S",
       {{"S", Value::Integer(INT64_MIN)}}},
  };
  for (const auto& [sql, params] : cases) {
    ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, optimizer.Prepare(sql));
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         optimizer.Execute(prepared, params));
    EXPECT_TRUE(rows.empty()) << sql;
  }
}

TEST_F(ExecTest, StatsAccounting) {
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT DISTINCT SNAME FROM SUPPLIER", {}, {}, &stats));
  EXPECT_EQ(stats.rows_scanned, 100u);
  EXPECT_EQ(stats.rows_sorted, 100u);  // default distinct strategy: sort
  EXPECT_GT(stats.sort_comparisons, 0u);
  EXPECT_EQ(stats.rows_output, rows.size());
}

}  // namespace
}  // namespace uniqopt
