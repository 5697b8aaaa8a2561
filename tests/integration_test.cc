// End-to-end scenarios through the Optimizer facade, including a
// machine-checked index of every worked example in the paper.

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"

namespace uniqopt {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(MakeTestSupplierDatabase(&db_));
    optimizer_ = std::make_unique<Optimizer>(&db_);
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(IntegrationTest, PrepareExecuteRoundTrip) {
  auto prepared = optimizer_->Prepare(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.PNO = :PN");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared->rewrites.empty());
  auto rows = optimizer_->Execute(*prepared, {{"PN", Value::Integer(3)}});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 100u);
}

TEST_F(IntegrationTest, UnboundHostVariableRejected) {
  auto prepared = optimizer_->Prepare(
      "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :X");
  ASSERT_TRUE(prepared.ok());
  auto rows = optimizer_->Execute(*prepared);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  auto unknown =
      optimizer_->Execute(*prepared, {{"Y", Value::Integer(1)}});
  EXPECT_FALSE(unknown.ok());
}

TEST_F(IntegrationTest, ExplainMentionsRewrites) {
  auto prepared = optimizer_->Prepare(
      "SELECT SNO FROM SUPPLIER EXCEPT SELECT SNO FROM AGENTS");
  ASSERT_TRUE(prepared.ok());
  std::string explain = prepared->Explain();
  EXPECT_NE(explain.find("ExceptToNotExists"), std::string::npos) << explain;
  EXPECT_NE(explain.find("NotExists"), std::string::npos);
}

TEST_F(IntegrationTest, AnalyzeSqlDiagnostic) {
  auto verdict = optimizer_->AnalyzeSql(
      "SELECT DISTINCT SNO, SNAME FROM SUPPLIER");
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->has_distinct);
  EXPECT_TRUE(verdict->distinct_unnecessary);
}

TEST_F(IntegrationTest, ColdPrepareRunsAlgorithm1OncePerDistinct) {
  // The rewriter's DISTINCT gate reuses the analyze phase's verdict for
  // the unrewritten plan instead of running Algorithm 1 again.
  obs::Counter& runs =
      obs::MetricsRegistry::Global().GetCounter("analysis.algorithm1.runs");
  const uint64_t before = runs.value();
  auto prepared = optimizer_->Prepare(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared->cache_hit);
  EXPECT_TRUE(prepared->analysis.distinct_unnecessary);
  ASSERT_EQ(prepared->rewrites.size(), 1u);
  EXPECT_EQ(prepared->rewrites[0].rule,
            RewriteRuleId::kRemoveRedundantDistinct);
  EXPECT_TRUE(prepared->rewrites[0].evidence.proof.recorded);
  EXPECT_EQ(runs.value() - before, 1u);
}

TEST_F(IntegrationTest, WideSelfJoinDistinctPrepares) {
  // Twenty PARTS: the product would carry 2^20 derived keys without the
  // kMaxDerivedKeys bound. The DISTINCT is required and must stay.
  auto prepared = optimizer_->Prepare(PartsSelfJoinSql(20));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->analysis.has_distinct);
  EXPECT_FALSE(prepared->analysis.distinct_unnecessary);
  const ProjectNode* top = As<ProjectNode>(prepared->optimized_plan);
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->mode(), DuplicateMode::kDist);
  DerivedProperties product = DeriveProperties(top->input());
  EXPECT_FALSE(product.keys.empty());
  EXPECT_LE(product.keys.size(), kMaxDerivedKeys);
}

TEST_F(IntegrationTest, OptimizedPlansReturnSameRowsAsOriginal) {
  const char* queries[] = {
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
      "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' "
      "OR A.ACITY = 'Hull'",
      "SELECT SNO FROM SUPPLIER EXCEPT ALL SELECT SNO FROM AGENTS",
  };
  for (const char* sql : queries) {
    auto prepared = optimizer_->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    ExecContext ctx1;
    ExecContext ctx2;
    auto original = ExecutePlan(prepared->original_plan, db_, &ctx1);
    auto optimized = ExecutePlan(prepared->optimized_plan, db_, &ctx2);
    ASSERT_TRUE(original.ok()) << sql;
    ASSERT_TRUE(optimized.ok()) << sql;
    EXPECT_TRUE(MultisetEquals(*original, *optimized)) << sql;
  }
}

/// The per-example index: every worked example in the paper, the
/// component that reproduces it, and its expected analyzer/rewriter
/// outcome, executed end to end.
struct PaperExample {
  const char* id;
  const char* sql;
  /// Rule expected to fire (or none).
  std::optional<RewriteRuleId> expected_rule;
};

TEST_F(IntegrationTest, PaperExampleIndex) {
  const PaperExample examples[] = {
      {"example1 (§1)",
       "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
       RewriteRuleId::kRemoveRedundantDistinct},
      {"example2 (§1)",
       "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
       std::nullopt},
      {"example4 (§3)",
       "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, "
       "PARTS P WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO",
       RewriteRuleId::kRemoveRedundantDistinct},
      {"example6 (§5.1)",
       "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, "
       "PARTS P WHERE S.SNAME = :SUPPLIER_NAME AND S.SNO = P.SNO",
       RewriteRuleId::kRemoveRedundantDistinct},
      {"example7 (§5.2)",
       "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE "
       "S.SNAME = :SUPPLIER_NAME AND EXISTS (SELECT * FROM PARTS P "
       "WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)",
       RewriteRuleId::kSubqueryToJoin},
      {"example8 (§5.2)",
       "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
       "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
       RewriteRuleId::kSubqueryToDistinctJoin},
      {"example9 (§5.3)",
       "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
       "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE "
       "A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
       RewriteRuleId::kIntersectToExists},
  };
  for (const PaperExample& ex : examples) {
    auto prepared = optimizer_->Prepare(ex.sql);
    ASSERT_TRUE(prepared.ok()) << ex.id << ": "
                               << prepared.status().ToString();
    if (ex.expected_rule.has_value()) {
      bool fired = false;
      for (const AppliedRewrite& r : prepared->rewrites) {
        fired = fired || r.rule == *ex.expected_rule;
      }
      EXPECT_TRUE(fired) << ex.id << " expected "
                         << RewriteRuleIdToString(*ex.expected_rule)
                         << "\n"
                         << prepared->Explain();
    } else {
      EXPECT_TRUE(prepared->rewrites.empty())
          << ex.id << " expected no rewrite\n"
          << prepared->Explain();
    }
  }
}

TEST_F(IntegrationTest, FreshDatabaseViaDdlAndFacade) {
  // Build a new schema purely through SQL and use the facade end to end.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE EMP (ENO INTEGER NOT NULL, DNO INTEGER NOT NULL, "
      "NAME VARCHAR(20), PRIMARY KEY (ENO))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE DEPT (DNO INTEGER NOT NULL, DNAME VARCHAR(20), "
      "PRIMARY KEY (DNO))"));
  ASSERT_OK_AND_ASSIGN(Table * emp, db.GetTable("EMP"));
  ASSERT_OK_AND_ASSIGN(Table * dept, db.GetTable("DEPT"));
  for (int64_t d = 1; d <= 3; ++d) {
    ASSERT_OK(dept->InsertValues(
        {Value::Integer(d), Value::String("DEPT-" + std::to_string(d))}));
  }
  for (int64_t e = 1; e <= 9; ++e) {
    ASSERT_OK(emp->InsertValues({Value::Integer(e),
                                 Value::Integer(1 + e % 3),
                                 Value::String("E" + std::to_string(e))}));
  }
  Optimizer opt(&db);
  auto prepared = opt.Prepare(
      "SELECT DISTINCT E.ENO, E.NAME, D.DNAME FROM EMP E, DEPT D "
      "WHERE E.DNO = D.DNO");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // ENO is EMP's key; DEPT's key DNO is bound via E.DNO = D.DNO and
  // ENO → DNO... it is NOT: DNO of D is equated to E.DNO which is
  // functionally determined by ENO. Algorithm 1 misses this (V lacks
  // D.DNO) but the FD detector finds it.
  auto fired = prepared->rewrites;
  bool removed = false;
  for (const AppliedRewrite& r : fired) {
    removed = removed || r.rule == RewriteRuleId::kRemoveRedundantDistinct;
  }
  EXPECT_TRUE(removed) << prepared->Explain();
  auto rows = opt.Execute(*prepared);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  EXPECT_FALSE(HasDuplicates(*rows));
}

}  // namespace
}  // namespace uniqopt
