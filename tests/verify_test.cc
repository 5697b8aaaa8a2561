// The post-optimization verifier must (a) stay silent on every sound
// plan the optimizer produces — the paper's worked examples and a
// several-hundred-plan random sweep — and (b) catch a seeded unsound
// fixture per analyzer: a dangling column reference for the plan lint,
// and forged uniqueness claims for the equivalence prover.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "equiv/symbolic.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "verify/verify.h"
#include "workload/query_corpus.h"
#include "workload/random_query.h"

namespace uniqopt {
namespace {

using verify::Analyzer;
using verify::VerifyInput;
using verify::VerifyReport;

size_t CountCode(const VerifyReport& report, const std::string& code) {
  size_t n = 0;
  for (const verify::Violation& v : report.violations) {
    if (verify::ViolationCodeName(v.code) == code) ++n;
  }
  return n;
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(CreateSupplierSchema(&db_)); }

  const TableDef* Def(const std::string& name) {
    auto def = db_.catalog().GetTable(name);
    EXPECT_TRUE(def.ok());
    return def.ok() ? *def : nullptr;
  }

  PlanPtr Bind(const std::string& sql) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return bound.ok() ? bound->plan : nullptr;
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Plan lint: seeded structural corruption.
// ---------------------------------------------------------------------------

TEST_F(VerifyTest, LintCatchesDanglingColumnRef) {
  // SUPPLIER has 5 columns; a selection predicate referencing column 99
  // could never have been produced by the binder.
  PlanPtr get = GetNode::Make(Def("SUPPLIER"), "S");
  PlanPtr bad = SelectNode::Make(
      get, Expr::Compare(CompareOp::kEq,
                         Expr::ColumnRef(99, "BOGUS", TypeId::kInteger),
                         Expr::Literal(Value::Integer(1))));
  VerifyInput input;
  input.optimized = bad;
  VerifyReport report = verify::VerifyPlan(input);
  EXPECT_FALSE(report.Clean());
  EXPECT_GE(CountCode(report, "dangling-column-ref"), 1u)
      << report.ToString();
  EXPECT_EQ(report.violations[0].analyzer, Analyzer::kPlanLint);
}

TEST_F(VerifyTest, LintCatchesDistinctDroppedWithoutProof) {
  // A DISTINCT that vanished with no duplicate-affecting rewrite on
  // record: the optimized plan would return duplicate SNAMEs.
  PlanPtr get = GetNode::Make(Def("SUPPLIER"), "S");
  PlanPtr original = ProjectNode::Make(get, DuplicateMode::kDist, {1});
  PlanPtr optimized = ProjectNode::Make(get, DuplicateMode::kAll, {1});
  std::vector<AppliedRewrite> no_rewrites;
  VerifyInput input;
  input.original = original;
  input.optimized = optimized;
  input.rewrites = &no_rewrites;
  VerifyReport report = verify::VerifyPlan(input);
  EXPECT_EQ(CountCode(report, "distinct-dropped-without-proof"), 1u)
      << report.ToString();
}

TEST_F(VerifyTest, LintCatchesRewriteWithoutEvidence) {
  PlanPtr get = GetNode::Make(Def("SUPPLIER"), "S");
  PlanPtr plan = ProjectNode::Make(get, DuplicateMode::kAll, {0});
  AppliedRewrite forged;
  forged.rule = RewriteRuleId::kRemoveRedundantDistinct;
  forged.description = "forged: no evidence attached";
  // condition_proven left false, subtrees left null.
  std::vector<AppliedRewrite> rewrites{forged};
  VerifyInput input;
  input.optimized = plan;
  input.rewrites = &rewrites;
  VerifyReport report = verify::VerifyPlan(input);
  EXPECT_GE(CountCode(report, "rewrite-without-proven-condition"), 1u)
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Equivalence prover: forged uniqueness claims.
// ---------------------------------------------------------------------------

TEST_F(VerifyTest, ProofCheckerRejectsForgedDistinctRemoval) {
  // Example 2 projects SNAME instead of the SUPPLIER key, so DISTINCT
  // is *not* redundant. Forge a kRemoveRedundantDistinct that claims it
  // was proven; the prover must refute it with a two-row witness.
  PlanPtr before = Bind(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(before, nullptr);
  const ProjectNode* proj = As<ProjectNode>(before);
  ASSERT_NE(proj, nullptr);
  PlanPtr after =
      ProjectNode::Make(proj->input(), DuplicateMode::kAll, proj->columns());
  AppliedRewrite forged;
  forged.rule = RewriteRuleId::kRemoveRedundantDistinct;
  forged.description = "forged: Theorem 1 claimed without a real proof";
  forged.evidence.before = before;
  forged.evidence.after = after;
  forged.evidence.condition_proven = true;
  forged.evidence.proof.recorded = true;
  forged.evidence.proof.conclusion = "forged: closure covers every key";
  std::vector<AppliedRewrite> rewrites{forged};
  VerifyInput input;
  input.optimized = after;
  input.rewrites = &rewrites;
  VerifyReport report = verify::VerifyPlan(input);
  EXPECT_GE(CountCode(report, "equiv-refuted"), 1u) << report.ToString();
}

TEST_F(VerifyTest, ProofCheckerCrossChecksAnalysisVerdict) {
  // Forge the optimizer's standalone verdict itself: claim Algorithm 1
  // proved Example 2's DISTINCT redundant. The rewriter trusts the
  // verdict for the root and drops the DISTINCT; the prover must refute
  // the rewrite that comes out.
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  UniquenessVerdict forged;
  forged.has_distinct = true;
  forged.distinct_unnecessary = true;
  forged.detector = DetectorKind::kAlgorithm1;
  forged.proof.recorded = true;
  forged.proof.conclusion = "forged YES";
  auto rewritten = RewritePlan(plan, {}, &forged);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  ASSERT_TRUE(rewritten->Applied(RewriteRuleId::kRemoveRedundantDistinct));
  VerifyInput input;
  input.original = plan;
  input.optimized = rewritten->plan;
  input.rewrites = &rewritten->applied;
  VerifyReport report = verify::VerifyPlan(input);
  EXPECT_GE(CountCode(report, "equiv-refuted"), 1u) << report.ToString();
}

TEST_F(VerifyTest, ReferenceClosureBindsTransitively) {
  // c0 = 'x' and c0 = c1: the prover's closure must reach c1 from the
  // Type 1 binding of c0, and leave the unconstrained c2 free.
  equiv::SymbolicSpec spec;
  spec.width = 3;
  spec.conjuncts = {
      Expr::Compare(CompareOp::kEq,
                    Expr::ColumnRef(0, "A", TypeId::kString),
                    Expr::Literal(Value::String("x"))),
      Expr::Compare(CompareOp::kEq,
                    Expr::ColumnRef(0, "A", TypeId::kString),
                    Expr::ColumnRef(1, "B", TypeId::kString)),
  };
  std::vector<char> closure = equiv::CloseOverEqualities(spec, {});
  ASSERT_EQ(closure.size(), 3u);
  EXPECT_TRUE(closure[0]);
  EXPECT_TRUE(closure[1]);
  EXPECT_FALSE(closure[2]);
}

// ---------------------------------------------------------------------------
// Clean passes: the paper's worked examples, end to end.
// ---------------------------------------------------------------------------

TEST_F(VerifyTest, PaperExamplesVerifyClean) {
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(true);
  std::vector<std::string> sqls;
  // Examples 1, 2, 4, 5, 6 and their systematic variations.
  for (const CorpusQuery& q : DistinctQueryCorpus()) sqls.push_back(q.sql);
  // Examples 7–11 (§5.2, §5.3, §6).
  sqls.push_back(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE "
      "S.SNAME = :SUPPLIER_NAME AND EXISTS (SELECT * FROM PARTS P "
      "WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)");
  sqls.push_back(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  sqls.push_back(
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
      "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE "
      "A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'");
  sqls.push_back(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO");
  sqls.push_back(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO BETWEEN 10 AND 20 AND S.SNO = P.SNO AND P.PNO = 4");
  // Set-operation variants (Theorem 3 / Corollary 2 lowerings).
  sqls.push_back(
      "SELECT SNO FROM SUPPLIER INTERSECT ALL SELECT SNO FROM AGENTS");
  sqls.push_back(
      "SELECT SNO FROM SUPPLIER EXCEPT SELECT SNO FROM AGENTS");
  for (const std::string& sql : sqls) {
    auto prepared = optimizer.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql << ": "
                               << prepared.status().ToString();
    ASSERT_TRUE(prepared->verified) << sql;
    EXPECT_TRUE(prepared->verification.Clean())
        << sql << "\n" << prepared->verification.ToString();
    EXPECT_GT(prepared->verification.nodes_checked, 0u) << sql;
  }
}

TEST_F(VerifyTest, RegressionDistinctRemovalBeyondAlgorithm1VerifiesClean) {
  // Two DISTINCT removals the first verifier sweep flagged falsely:
  //  - over a GROUP BY output (Algorithm 1 cannot decompose the shape;
  //    the group columns key the output structurally);
  //  - proven by the FD detector where the key of AGENTS functionally
  //    determines the join column (beyond the prover's closure).
  // Both are sound; the verifier must accept them.
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(true);
  for (const char* sql : {
           "SELECT DISTINCT P.OEM_PNO, P.PNO, COUNT(*) FROM PARTS P "
           "GROUP BY P.OEM_PNO, P.PNO",
           "SELECT DISTINCT A.ANO, P.PNAME FROM AGENTS A, PARTS P "
           "WHERE A.SNO = P.SNO AND P.PNO = :P",
       }) {
    auto prepared = optimizer.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    ASSERT_TRUE(prepared->rewrites.size() >= 1 &&
                prepared->rewrites[0].rule ==
                    RewriteRuleId::kRemoveRedundantDistinct)
        << sql << ": the rewrite under test did not fire";
    EXPECT_TRUE(prepared->verification.Clean())
        << sql << "\n" << prepared->verification.ToString();
  }
}

TEST_F(VerifyTest, ExplainIncludesVerificationSection) {
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(true);
  auto prepared = optimizer.Prepare(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_TRUE(prepared.ok());
  std::string explain = prepared->Explain();
  EXPECT_NE(explain.find("verification"), std::string::npos) << explain;
  EXPECT_NE(explain.find("clean"), std::string::npos) << explain;
}

// ---------------------------------------------------------------------------
// Differential sweep: every plan the optimizer prepares over a large
// random workload must verify clean — the acceptance oracle.
// ---------------------------------------------------------------------------

class VerifySweepTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { ASSERT_OK(CreateSupplierSchema(&db_)); }
  Database db_;
};

TEST_P(VerifySweepTest, RandomWorkloadVerifiesClean) {
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(true);
  RandomQueryOptions qopts;
  qopts.seed = GetParam();
  qopts.always_distinct = false;
  qopts.group_by_probability = 0.2;
  RandomQueryGenerator gen(qopts);
  size_t verified = 0;
  for (int i = 0; i < 120 && verified < 100; ++i) {
    std::string sql = gen.NextQuery();
    auto prepared = optimizer.Prepare(sql);
    if (!prepared.ok()) continue;  // outside the supported subset
    ASSERT_TRUE(prepared->verified) << sql;
    EXPECT_TRUE(prepared->verification.Clean())
        << sql << "\n" << prepared->verification.ToString();
    EXPECT_TRUE(SameColumnNamesAndTypes(prepared->original_plan->schema(),
                                        prepared->optimized_plan->schema()))
        << sql;
    ++verified;
  }
  // Three seeds x >=70 plans comfortably clears the 200-plan floor.
  EXPECT_GE(verified, 70u);
}

TEST_P(VerifySweepTest, ReferenceNeverOutProvesProductionAlgorithm1) {
  // The equivalence prover's duplicate-freeness judgment shares no code
  // with src/analysis/ and skips CNF normalization, so its deductive
  // power is a subset of production Algorithm 1's: any query the prover
  // shows duplicate-free that production answers NO on is a lost
  // derivation in algorithm1.cc.
  Binder binder(&db_.catalog());
  RandomQueryOptions qopts;
  qopts.seed = GetParam() + 1000;
  qopts.always_distinct = true;
  RandomQueryGenerator gen(qopts);
  Algorithm1Options options;
  size_t compared = 0;
  for (int i = 0; i < 150; ++i) {
    auto bound = binder.BindSql(gen.NextQuery());
    if (!bound.ok()) continue;
    auto production = AnalyzeDistinctAlgorithm1(bound->plan, options);
    if (!production.ok()) continue;  // unsupported shape
    const ProjectNode* proj = As<ProjectNode>(bound->plan);
    if (proj == nullptr || proj->mode() != DuplicateMode::kDist) continue;
    ++compared;
    if (equiv::SymbolicallyDuplicateFree(ProjectNode::Make(
            proj->input(), DuplicateMode::kAll, proj->columns()))) {
      EXPECT_TRUE(production->distinct_unnecessary)
          << "the prover proves but production misses:\n"
          << bound->plan->ToString();
    }
  }
  EXPECT_GE(compared, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifySweepTest,
                         ::testing::Values(7u, 19u, 41u));

}  // namespace
}  // namespace uniqopt
