// Tests for the GROUP BY / aggregation extension (§7: "expanding the
// suite of SQL queries considered"), including the uniqueness tie-ins:
// group columns are a derived key, and grouping on a key collapses to a
// projection.

#include <gtest/gtest.h>

#include "analysis/uniqueness.h"
#include "exec/cost_model.h"
#include "parser/parser.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

class GroupByTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(MakeTestSupplierDatabase(&db_)); }

  Database db_;
};

TEST_F(GroupByTest, ParsesAndPrints) {
  auto q = ParseQuery(
      "SELECT SNO, COUNT(*), SUM(PNO) FROM PARTS GROUP BY SNO");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->specs[0]->group_by.size(), 1u);
  auto q2 = ParseQuery((*q)->ToString());
  ASSERT_TRUE(q2.ok()) << (*q)->ToString();
}

TEST_F(GroupByTest, CountPerGroup) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT SNO, COUNT(*) FROM PARTS GROUP BY SNO"));
  ASSERT_EQ(rows.size(), 100u);  // one group per supplier
  for (const Row& r : rows) {
    EXPECT_EQ(r[1].AsInteger(), 10);  // parts_per_supplier
  }
}

TEST_F(GroupByTest, ScalarAggregates) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT COUNT(*), MIN(PNO), MAX(PNO), SUM(PNO), AVG(PNO) "
                  "FROM PARTS"));
  ASSERT_EQ(rows.size(), 1u);
  const Row& r = rows[0];
  EXPECT_EQ(r[0].AsInteger(), 1000);
  EXPECT_EQ(r[1].AsInteger(), 1);
  EXPECT_EQ(r[2].AsInteger(), 10);
  EXPECT_EQ(r[3].AsInteger(), 5500);  // 100 × (1+..+10)
  EXPECT_DOUBLE_EQ(r[4].AsDouble(), 5.5);
}

TEST_F(GroupByTest, ScalarAggregateOnEmptyInput) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db, "SELECT COUNT(*), COUNT(X), SUM(X), MIN(X) FROM T"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInteger(), 0);
  EXPECT_EQ(rows[0][1].AsInteger(), 0);
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_TRUE(rows[0][3].is_null());
}

TEST_F(GroupByTest, GroupedOnEmptyInputYieldsNoRows) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (G INTEGER, X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db, "SELECT G, COUNT(*) FROM T GROUP BY G"));
  EXPECT_TRUE(rows.empty());
}

TEST_F(GroupByTest, AggregatesIgnoreNulls) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (G INTEGER, X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  ASSERT_OK(t->InsertValues({Value::Integer(1), Value::Integer(10)}));
  ASSERT_OK(t->InsertValues({Value::Integer(1), Value::Null(TypeId::kInteger)}));
  ASSERT_OK(t->InsertValues({Value::Integer(2), Value::Null(TypeId::kInteger)}));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db,
             "SELECT G, COUNT(*), COUNT(X), SUM(X), AVG(X) FROM T "
             "GROUP BY G"));
  ASSERT_EQ(rows.size(), 2u);
  std::sort(rows.begin(), rows.end());
  // Group 1: two rows, one non-NULL X.
  EXPECT_EQ(rows[0][1].AsInteger(), 2);
  EXPECT_EQ(rows[0][2].AsInteger(), 1);
  EXPECT_EQ(rows[0][3].AsInteger(), 10);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 10.0);
  // Group 2: all-NULL X ⇒ SUM/AVG NULL, COUNT(X) 0.
  EXPECT_EQ(rows[1][2].AsInteger(), 0);
  EXPECT_TRUE(rows[1][3].is_null());
  EXPECT_TRUE(rows[1][4].is_null());
}

TEST_F(GroupByTest, NullGroupKeysCollapse) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (G INTEGER, X INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  ASSERT_OK(t->InsertValues({Value::Null(TypeId::kInteger), Value::Integer(1)}));
  ASSERT_OK(t->InsertValues({Value::Null(TypeId::kInteger), Value::Integer(2)}));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       RunSql(db, "SELECT G, COUNT(*) FROM T GROUP BY G"));
  // GROUP BY treats NULLs as equal (same =! as DISTINCT).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[0][1].AsInteger(), 2);
}

TEST_F(GroupByTest, SelectListValidation) {
  Binder binder(&db_.catalog());
  // Non-grouped column in the select list.
  EXPECT_FALSE(
      binder.BindSql("SELECT SNAME, COUNT(*) FROM SUPPLIER GROUP BY SNO")
          .ok());
  // Aggregates not allowed in WHERE.
  EXPECT_FALSE(
      binder.BindSql("SELECT SNO FROM SUPPLIER WHERE COUNT(*) = 1").ok());
  // Star in grouped query.
  EXPECT_FALSE(
      binder.BindSql("SELECT * FROM SUPPLIER GROUP BY SNO").ok());
  // SUM over a string column.
  EXPECT_FALSE(
      binder.BindSql("SELECT SUM(SNAME) FROM SUPPLIER").ok());
}

TEST_F(GroupByTest, GroupColumnsAreDerivedKey) {
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT DISTINCT SNO, COUNT(*) FROM PARTS GROUP BY SNO");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // DISTINCT over GROUP BY output is redundant: group cols are a key.
  UniquenessVerdict verdict = AnalyzeDistinctFd(bound->plan);
  EXPECT_TRUE(verdict.has_distinct);
  EXPECT_TRUE(verdict.distinct_unnecessary)
      << testing::PrintToString(verdict.trace);
}

TEST_F(GroupByTest, GroupByOnKeyCollapsesToProjection) {
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT SNO, SUM(BUDGET) FROM SUPPLIER GROUP BY SNO");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto rewritten = RewritePlan(bound->plan);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(rewritten->Applied(RewriteRuleId::kEliminateGroupByOnKey))
      << rewritten->plan->ToString();
  // Results agree.
  ExecContext c1;
  ExecContext c2;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> before,
                       ExecutePlan(bound->plan, db_, &c1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> after,
                       ExecutePlan(rewritten->plan, db_, &c2));
  EXPECT_TRUE(MultisetEquals(before, after));
  EXPECT_EQ(before.size(), 100u);
}

TEST_F(GroupByTest, GroupByOnKeyWithCountNotCollapsed) {
  // COUNT over a single-row group is 0 or 1, not the column value, and
  // AVG changes the type: the projection rewrite must not fire.
  Binder binder(&db_.catalog());
  for (const char* sql : {
           "SELECT SNO, COUNT(*) FROM SUPPLIER GROUP BY SNO",
           "SELECT SNO, COUNT(SNAME) FROM SUPPLIER GROUP BY SNO",
           "SELECT SNO, AVG(BUDGET) FROM SUPPLIER GROUP BY SNO",
       }) {
    auto bound = binder.BindSql(sql);
    ASSERT_TRUE(bound.ok()) << sql;
    auto rewritten = RewritePlan(bound->plan);
    ASSERT_TRUE(rewritten.ok()) << sql;
    EXPECT_FALSE(rewritten->Applied(RewriteRuleId::kEliminateGroupByOnKey))
        << sql;
  }
}

TEST_F(GroupByTest, GroupByOnNonKeyNotCollapsed) {
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT SNAME, MIN(BUDGET) FROM SUPPLIER GROUP BY SNAME");
  ASSERT_TRUE(bound.ok());
  auto rewritten = RewritePlan(bound->plan);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_FALSE(rewritten->Applied(RewriteRuleId::kEliminateGroupByOnKey));
}

TEST_F(GroupByTest, GroupByKeyViaEqualityClosure) {
  // Grouping PARTS by (SNO, PNO) — its key — after a join: the closure
  // machinery sees the key through the select predicates.
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT P.SNO, P.PNO, MAX(P.OEM_PNO) FROM PARTS P "
      "WHERE P.COLOR = 'RED' GROUP BY P.SNO, P.PNO");
  ASSERT_TRUE(bound.ok());
  auto rewritten = RewritePlan(bound->plan);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(rewritten->Applied(RewriteRuleId::kEliminateGroupByOnKey));
  ExecContext c1;
  ExecContext c2;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> before,
                       ExecutePlan(bound->plan, db_, &c1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> after,
                       ExecutePlan(rewritten->plan, db_, &c2));
  EXPECT_TRUE(MultisetEquals(before, after));
}

TEST_F(GroupByTest, JoinedGroupBy) {
  // Red parts per city: join + group.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_,
             "SELECT S.SCITY, COUNT(*) FROM SUPPLIER S, PARTS P "
             "WHERE S.SNO = P.SNO AND P.COLOR = 'RED' GROUP BY S.SCITY"));
  ASSERT_LE(rows.size(), 3u);
  int64_t total = 0;
  for (const Row& r : rows) total += r[1].AsInteger();
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> red,
      RunSql(db_,
             "SELECT P.PNO FROM SUPPLIER S, PARTS P "
             "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"));
  EXPECT_EQ(static_cast<size_t>(total), red.size());
}

TEST_F(GroupByTest, MinMaxOnStrings) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Row> rows,
      RunSql(db_, "SELECT MIN(COLOR), MAX(COLOR) FROM PARTS"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "BLUE");
  EXPECT_EQ(rows[0][1].AsString(), "YELLOW");
}

TEST_F(GroupByTest, CostModelEstimatesGroups) {
  CostEstimator estimator(&db_);
  Binder binder(&db_.catalog());
  auto bound =
      binder.BindSql("SELECT SCITY, COUNT(*) FROM SUPPLIER GROUP BY SCITY");
  ASSERT_TRUE(bound.ok());
  double rows = estimator.EstimateRows(bound->plan);
  EXPECT_NEAR(rows, 3.0, 1.0);
}

}  // namespace
}  // namespace uniqopt
