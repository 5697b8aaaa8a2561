#include <gtest/gtest.h>

#include "analysis/properties.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(MakeTestSupplierDatabase(&db_)); }

  PlanPtr Bind(const std::string& sql) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return bound.ok() ? bound->plan : nullptr;
  }

  /// Executes `plan` and the rewritten plan; checks multiset equality and
  /// returns which rules fired.
  RewriteResult RewriteAndCheck(const std::string& sql,
                                const ParamBindings& params = {},
                                const RewriteOptions& options = {}) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto rewritten = RewritePlan(bound->plan, options);
    EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();

    ExecContext ctx1;
    ExecContext ctx2;
    ctx1.params.resize(bound->host_vars.size());
    ctx2.params.resize(bound->host_vars.size());
    for (const auto& [name, value] : params) {
      auto slot = bound->HostVarSlot(name);
      EXPECT_TRUE(slot.ok());
      ctx1.params[*slot] = value;
      ctx2.params[*slot] = value;
    }
    auto before = ExecutePlan(bound->plan, db_, &ctx1);
    auto after = ExecutePlan(rewritten->plan, db_, &ctx2);
    EXPECT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_TRUE(after.ok()) << after.status().ToString();
    if (before.ok() && after.ok()) {
      EXPECT_TRUE(MultisetEquals(*before, *after))
          << sql << "\noriginal:\n"
          << bound->plan->ToString() << "rewritten:\n"
          << rewritten->plan->ToString() << "before rows:\n"
          << RowsToString(*before) << "after rows:\n"
          << RowsToString(*after);
    }
    return *rewritten;
  }

  Database db_;
};

TEST_F(RewriteTest, RemovesRedundantDistinctExample1) {
  RewriteResult r = RewriteAndCheck(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kRemoveRedundantDistinct));
  const ProjectNode* project = As<ProjectNode>(r.plan);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(project->mode(), DuplicateMode::kAll);
}

TEST_F(RewriteTest, KeepsNecessaryDistinctExample2) {
  RewriteResult r = RewriteAndCheck(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  EXPECT_FALSE(r.Applied(RewriteRuleId::kRemoveRedundantDistinct));
  const ProjectNode* project = As<ProjectNode>(r.plan);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(project->mode(), DuplicateMode::kDist);
}

TEST_F(RewriteTest, SubqueryToJoinExample7) {
  RewriteResult r = RewriteAndCheck(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
      "WHERE S.SNAME = :NAME AND EXISTS "
      "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PN)",
      {{"NAME", Value::String("SUPPLIER-7")}, {"PN", Value::Integer(3)}});
  EXPECT_TRUE(r.Applied(RewriteRuleId::kSubqueryToJoin));
  // The result no longer contains an Exists node.
  EXPECT_EQ(r.plan->kind(), PlanKind::kProject);
  EXPECT_NE(As<SelectNode>(As<ProjectNode>(r.plan)->input()), nullptr);
}

TEST_F(RewriteTest, SubqueryToDistinctJoinExample8) {
  // Outer projects SUPPLIER's key ⇒ Corollary 1 applies even though many
  // red parts may match.
  RewriteResult r = RewriteAndCheck(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kSubqueryToDistinctJoin));
  const ProjectNode* project = As<ProjectNode>(r.plan);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(project->mode(), DuplicateMode::kDist);
}

TEST_F(RewriteTest, SubqueryNotConvertedWhenDuplicatesWouldAppear) {
  // Outer projects a non-key (SNAME): converting to a plain join would
  // duplicate suppliers with several red parts; converting to DISTINCT
  // join would collapse legitimately duplicate SNAMEs. Neither is valid.
  RewriteResult r = RewriteAndCheck(
      "SELECT ALL S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  EXPECT_FALSE(r.Applied(RewriteRuleId::kSubqueryToJoin));
  EXPECT_FALSE(r.Applied(RewriteRuleId::kSubqueryToDistinctJoin));
}

TEST_F(RewriteTest, DistinctProjectionAlwaysConvertible) {
  RewriteResult r = RewriteAndCheck(
      "SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kSubqueryToDistinctJoin));
}

TEST_F(RewriteTest, IntersectToExistsExample9) {
  RewriteResult r = RewriteAndCheck(
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
      "INTERSECT "
      "SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR "
      "A.ACITY = 'Hull'");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kIntersectToExists));
  EXPECT_EQ(r.plan->kind(), PlanKind::kExists);
}

TEST_F(RewriteTest, IntersectAllToExistsCorollary2) {
  RewriteResult r = RewriteAndCheck(
      "SELECT SNO FROM SUPPLIER INTERSECT ALL SELECT SNO FROM PARTS");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kIntersectAllToExists));
}

TEST_F(RewriteTest, IntersectSwapsWhenOnlyRightUnique) {
  // Left operand (PARTS.SNO) has duplicates; right (SUPPLIER.SNO) is
  // unique — the rewrite swaps operands.
  RewriteResult r = RewriteAndCheck(
      "SELECT SNO FROM PARTS INTERSECT SELECT SNO FROM SUPPLIER");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kIntersectToExists) ||
              r.Applied(RewriteRuleId::kRemoveRedundantDistinct));
}

TEST_F(RewriteTest, IntersectNotRewrittenWhenBothHaveDuplicates) {
  // Neither operand is duplicate-free, so no set-op rule may fire: not
  // the lowering to [NOT] EXISTS, and not the DISTINCT → ALL relaxation.
  for (const char* op :
       {"INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL"}) {
    RewriteResult r = RewriteAndCheck(
        std::string("SELECT SNAME FROM SUPPLIER ") + op +
        " SELECT PNAME FROM PARTS");
    EXPECT_TRUE(r.applied.empty()) << op;
  }
}

TEST_F(RewriteTest, ExceptToNotExists) {
  RewriteResult r = RewriteAndCheck(
      "SELECT SNO FROM SUPPLIER EXCEPT SELECT SNO FROM AGENTS");
  EXPECT_TRUE(r.Applied(RewriteRuleId::kExceptToNotExists));
  const ExistsNode* exists = As<ExistsNode>(r.plan);
  ASSERT_NE(exists, nullptr);
  EXPECT_TRUE(exists->negated());
}

TEST_F(RewriteTest, NullSafeCorrelationPreservesNullMatches) {
  // OEM_PNO is nullable; the INTERSECT→EXISTS rewrite must keep NULLs
  // matching NULLs via the null-safe predicate.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE L (K INTEGER NOT NULL, V INTEGER, PRIMARY KEY (K))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE R (K INTEGER NOT NULL, V INTEGER, PRIMARY KEY (K))"));
  ASSERT_OK_AND_ASSIGN(Table * l, db.GetTable("L"));
  ASSERT_OK_AND_ASSIGN(Table * r, db.GetTable("R"));
  ASSERT_OK(l->InsertValues({Value::Integer(1), Value::Null(TypeId::kInteger)}));
  ASSERT_OK(l->InsertValues({Value::Integer(2), Value::Integer(7)}));
  ASSERT_OK(r->InsertValues({Value::Integer(1), Value::Null(TypeId::kInteger)}));
  ASSERT_OK(r->InsertValues({Value::Integer(3), Value::Integer(7)}));

  Binder binder(&db.catalog());
  const char* sql =
      "SELECT K, V FROM L INTERSECT SELECT K, V FROM R";
  auto bound = binder.BindSql(sql);
  ASSERT_TRUE(bound.ok());
  auto rewritten = RewritePlan(bound->plan);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(rewritten->Applied(RewriteRuleId::kIntersectToExists));

  ExecContext ctx1;
  ExecContext ctx2;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> before,
                       ExecutePlan(bound->plan, db, &ctx1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> after,
                       ExecutePlan(rewritten->plan, db, &ctx2));
  // Row (1, NULL) matches across operands under =!.
  ASSERT_EQ(before.size(), 1u);
  EXPECT_TRUE(MultisetEquals(before, after));
}

TEST_F(RewriteTest, JoinToSubqueryRequiresOptIn) {
  const char* sql =
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.PNO = :PN";
  RewriteResult off = RewriteAndCheck(sql, {{"PN", Value::Integer(2)}});
  EXPECT_FALSE(off.Applied(RewriteRuleId::kJoinToSubquery));

  RewriteOptions opts;
  opts.join_to_subquery = true;
  opts.subquery_to_join = false;  // avoid immediate re-conversion
  opts.subquery_to_distinct_join = false;
  RewriteResult on =
      RewriteAndCheck(sql, {{"PN", Value::Integer(2)}}, opts);
  EXPECT_TRUE(on.Applied(RewriteRuleId::kJoinToSubquery));
  const ProjectNode* project = As<ProjectNode>(on.plan);
  ASSERT_NE(project, nullptr);
  EXPECT_NE(As<ExistsNode>(project->input()), nullptr);
}

TEST_F(RewriteTest, JoinToSubqueryRejectedWhenInnerNotUnique) {
  // Discarded side (PARTS by COLOR) can match many times; ALL-mode join
  // semantics would be changed, so the rewrite must not fire.
  RewriteOptions opts;
  opts.join_to_subquery = true;
  opts.subquery_to_join = false;
  opts.subquery_to_distinct_join = false;
  RewriteResult r = RewriteAndCheck(
      "SELECT ALL S.SNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
      {}, opts);
  EXPECT_FALSE(r.Applied(RewriteRuleId::kJoinToSubquery));
}

TEST_F(RewriteTest, JoinToSubqueryDistinctModeAlwaysValid) {
  RewriteOptions opts;
  opts.join_to_subquery = true;
  opts.subquery_to_join = false;
  opts.subquery_to_distinct_join = false;
  opts.remove_redundant_distinct = false;  // keep the π_Dist visible
  RewriteResult r = RewriteAndCheck(
      "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
      {}, opts);
  EXPECT_TRUE(r.Applied(RewriteRuleId::kJoinToSubquery));
}

TEST_F(RewriteTest, RewritePipelineStacksRules) {
  // DISTINCT is redundant *and* the subquery is convertible: both rules
  // fire on one query.
  RewriteResult r = RewriteAndCheck(
      "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = :PN)",
      {{"PN", Value::Integer(1)}});
  EXPECT_TRUE(r.Applied(RewriteRuleId::kSubqueryToJoin) ||
              r.Applied(RewriteRuleId::kSubqueryToDistinctJoin));
  EXPECT_TRUE(r.Applied(RewriteRuleId::kRemoveRedundantDistinct));
  const ProjectNode* project = As<ProjectNode>(r.plan);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(project->mode(), DuplicateMode::kAll);
}

TEST_F(RewriteTest, ExistsToIntersectRoundTrip) {
  // §5.3 both ways: INTERSECT → EXISTS (Theorem 3), and — with the
  // converse rule enabled — that EXISTS back to an INTERSECT.
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM AGENTS");
  ASSERT_TRUE(bound.ok());
  auto forward = RewritePlan(bound->plan);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(forward->Applied(RewriteRuleId::kIntersectToExists));
  ASSERT_EQ(forward->plan->kind(), PlanKind::kExists);

  RewriteOptions back_opts;
  back_opts.exists_to_intersect = true;
  back_opts.intersect_to_exists = false;
  back_opts.intersect_all_to_exists = false;
  back_opts.except_to_not_exists = false;
  auto back = RewritePlan(forward->plan, back_opts);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Applied(RewriteRuleId::kExistsToIntersect))
      << back->plan->ToString();
  EXPECT_EQ(back->plan->kind(), PlanKind::kSetOp);

  // All three plans produce the same rows.
  ExecContext c1;
  ExecContext c2;
  ExecContext c3;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a,
                       ExecutePlan(bound->plan, db_, &c1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b,
                       ExecutePlan(forward->plan, db_, &c2));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> c,
                       ExecutePlan(back->plan, db_, &c3));
  EXPECT_TRUE(MultisetEquals(a, b));
  EXPECT_TRUE(MultisetEquals(a, c));
}

TEST_F(RewriteTest, ExistsToIntersectRequiresDuplicateFreeOuter) {
  // SNAME is not a key: the converse rewrite must not fire even with a
  // null-safe correlation shape.
  Binder binder(&db_.catalog());
  auto bound = binder.BindSql(
      "SELECT SNAME FROM SUPPLIER INTERSECT SELECT ANAME FROM AGENTS");
  ASSERT_TRUE(bound.ok());
  // Neither operand is duplicate-free, so the forward rewrite cannot
  // fire either; build the Exists manually.
  const SetOpNode* setop = As<SetOpNode>(bound->plan);
  ASSERT_NE(setop, nullptr);
  ExprPtr corr = MakeNullSafeCorrelation(setop->left()->schema(),
                                         setop->right()->schema());
  PlanPtr exists =
      ExistsNode::Make(setop->left(), setop->right(), corr, false);
  RewriteOptions opts;
  opts.exists_to_intersect = true;
  auto back = RewritePlan(exists, opts);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->Applied(RewriteRuleId::kExistsToIntersect));
}

TEST_F(RewriteTest, HostVarQueriesPreserveResultsAcrossParams) {
  const char* sql =
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
      "WHERE EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND "
      "P.PNO = :PN)";
  for (int64_t pn : {1, 5, 10, 99}) {
    RewriteAndCheck(sql, {{"PN", Value::Integer(pn)}});
  }
}

}  // namespace
}  // namespace uniqopt
