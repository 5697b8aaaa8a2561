#include <gtest/gtest.h>

#include "analysis/properties.h"
#include "analysis/subquery.h"
#include "analysis/uniqueness.h"
#include "test_util.h"
#include "workload/query_corpus.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    binder_ = std::make_unique<Binder>(&db_.catalog());
  }

  PlanPtr Bind(const std::string& sql) {
    auto bound = binder_->BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return bound.ok() ? bound->plan : nullptr;
  }

  Database db_;
  std::unique_ptr<Binder> binder_;
};

TEST_F(AnalysisTest, Example1DistinctUnnecessary) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->has_distinct);
  EXPECT_TRUE(verdict->distinct_unnecessary) << verdict->ExplainProof();
}

TEST_F(AnalysisTest, Example2DistinctRequired) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->distinct_unnecessary);
}

TEST_F(AnalysisTest, Example5TraceMatchesPaperSteps) {
  // The paper's Example 5 walks Algorithm 1 on the Example 4 query.
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P "
      "WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->distinct_unnecessary);
  // The proof should mention both kept conjuncts and key coverage.
  std::string proof = verdict->proof.ToText();
  EXPECT_NE(proof.find("Type 1"), std::string::npos) << proof;
  EXPECT_NE(proof.find("Type 2"), std::string::npos) << proof;
  EXPECT_NE(proof.find("YES"), std::string::npos) << proof;
}

TEST_F(AnalysisTest, VerbatimLine10RejectsEmptyPredicate) {
  PlanPtr plan = Bind("SELECT DISTINCT SNO, SNAME FROM SUPPLIER");
  ASSERT_NE(plan, nullptr);
  Algorithm1Options verbatim;
  verbatim.verbatim_line10 = true;
  auto v1 = AnalyzeDistinctAlgorithm1(plan, verbatim);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->distinct_unnecessary);  // published algorithm: NO
  auto v2 = AnalyzeDistinctAlgorithm1(plan, Algorithm1Options{});
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->distinct_unnecessary);  // repaired line 10: YES
}

TEST_F(AnalysisTest, CorpusGroundTruthVerbatim) {
  Algorithm1Options verbatim;
  verbatim.verbatim_line10 = true;
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    PlanPtr plan = Bind(q.sql);
    ASSERT_NE(plan, nullptr) << q.id;
    auto verdict = AnalyzeDistinctAlgorithm1(plan, verbatim);
    ASSERT_TRUE(verdict.ok()) << q.id;
    EXPECT_EQ(verdict->distinct_unnecessary, q.algorithm1_detects)
        << q.id << "\n"
        << q.sql;
    // Soundness: the detector may never contradict ground truth.
    if (verdict->distinct_unnecessary) {
      EXPECT_TRUE(q.distinct_redundant) << q.id;
    }
  }
}

TEST_F(AnalysisTest, CorpusGroundTruthFdDetector) {
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    PlanPtr plan = Bind(q.sql);
    ASSERT_NE(plan, nullptr) << q.id;
    UniquenessVerdict verdict = AnalyzeDistinctFd(plan);
    EXPECT_EQ(verdict.distinct_unnecessary, q.fd_detects)
        << q.id << "\n"
        << q.sql << "\n"
        << testing::PrintToString(verdict.trace);
    if (verdict.distinct_unnecessary) {
      EXPECT_TRUE(q.distinct_redundant) << q.id;
    }
  }
}

TEST_F(AnalysisTest, FdDetectorSubsumesAlgorithm1OnCorpus) {
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    if (q.algorithm1_detects) {
      EXPECT_TRUE(q.fd_detects) << q.id;
    }
  }
}

TEST_F(AnalysisTest, UniqueCandidateKeySwitch) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT P.OEM_PNO, P.PNAME FROM PARTS P WHERE "
      "P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  Algorithm1Options with_unique;
  auto v1 = AnalyzeDistinctAlgorithm1(plan, with_unique);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->distinct_unnecessary);
  Algorithm1Options no_unique;
  no_unique.use_unique_keys = false;
  auto v2 = AnalyzeDistinctAlgorithm1(plan, no_unique);
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->distinct_unnecessary);
}

TEST_F(AnalysisTest, ClosureSwitchAblation) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  Algorithm1Options no_closure;
  no_closure.use_column_equivalence = false;
  auto v = AnalyzeDistinctAlgorithm1(plan, no_closure);
  ASSERT_TRUE(v.ok());
  // Without Type 2 closure P.SNO is never bound ⇒ NO.
  EXPECT_FALSE(v->distinct_unnecessary);
}

TEST_F(AnalysisTest, ConstantBindingAblation) {
  PlanPtr plan =
      Bind("SELECT DISTINCT SNAME FROM SUPPLIER WHERE SNO = :X");
  ASSERT_NE(plan, nullptr);
  auto with = AnalyzeDistinctAlgorithm1(plan, Algorithm1Options{});
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with->distinct_unnecessary);
  Algorithm1Options off;
  off.bind_constants = false;
  auto without = AnalyzeDistinctAlgorithm1(plan, off);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->distinct_unnecessary);
}

TEST_F(AnalysisTest, CheckConstraintBindingRequiresNotNull) {
  // CHECK pins SCITY, but SCITY is nullable: under true-interpretation a
  // NULL still passes the CHECK, so the column is not constant and the
  // analyzer must not use it. With a NOT NULL column it may.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T1 (K INTEGER NOT NULL, C VARCHAR(10), "
      "PRIMARY KEY (K), CHECK (C = 'x'))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T2 (K INTEGER NOT NULL, C VARCHAR(10) NOT NULL, "
      "PRIMARY KEY (K), CHECK (C = 'x'))"));
  Binder binder(&db.catalog());

  AnalysisOptions use_checks;
  use_checks.use_check_constraints = true;

  auto bound1 = binder.BindSql("SELECT DISTINCT C FROM T1");
  ASSERT_TRUE(bound1.ok());
  EXPECT_FALSE(
      AnalyzeDistinctFd(bound1->plan, use_checks).distinct_unnecessary);

  auto bound2 = binder.BindSql("SELECT DISTINCT C FROM T2");
  ASSERT_TRUE(bound2.ok());
  // All rows have C = 'x': the single projected column is constant, so
  // the whole (at most one distinct) row cannot... still duplicates!
  // C constant means every row is identical — duplicates ARE possible,
  // so DISTINCT stays. What CHECK-binding buys is key coverage:
  EXPECT_FALSE(
      AnalyzeDistinctFd(bound2->plan, use_checks).distinct_unnecessary);

  // Key coverage through CHECK: T3's key is (K, C); CHECK pins C.
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T3 (K INTEGER NOT NULL, C VARCHAR(10) NOT NULL, "
      "V INTEGER, PRIMARY KEY (K, C), CHECK (C = 'x'))"));
  auto bound3 = binder.BindSql("SELECT DISTINCT K, V FROM T3");
  ASSERT_TRUE(bound3.ok());
  EXPECT_TRUE(
      AnalyzeDistinctFd(bound3->plan, use_checks).distinct_unnecessary);
  AnalysisOptions no_checks;
  EXPECT_FALSE(
      AnalyzeDistinctFd(bound3->plan, no_checks).distinct_unnecessary);
}

TEST_F(AnalysisTest, SubqueryAtMostOneMatchTheorem2) {
  // Example 7: inner PARTS key (SNO, PNO) fully bound by the correlation
  // S.SNO = P.SNO and the constant P.PNO = :PART_NO.
  PlanPtr plan = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
      "WHERE S.SNAME = :SUPPLIER_NAME AND EXISTS "
      "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)");
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  const ExistsNode* exists = As<ExistsNode>(project->input());
  ASSERT_NE(exists, nullptr);
  auto verdict = TestSubqueryAtMostOneMatch(*exists);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->at_most_one_match) << verdict->ExplainProof();
}

TEST_F(AnalysisTest, SubqueryManyMatchesExample8) {
  // Example 8: many red parts per supplier ⇒ condition fails.
  PlanPtr plan = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  const ExistsNode* exists = As<ExistsNode>(project->input());
  ASSERT_NE(exists, nullptr);
  auto verdict = TestSubqueryAtMostOneMatch(*exists);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->at_most_one_match);
}

// ---------------------------------------------------------------------
// Structured proof rendering (ExplainProof) for the paper's worked
// examples: the proof must name the dispositions, the closure steps,
// and the candidate-key coverage that justify each verdict.

TEST_F(AnalysisTest, Example1ProofShowsKeyCoverage) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("DISTINCT is unnecessary"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("Algorithm 1"), std::string::npos) << proof;
  EXPECT_NE(proof.find("keep (Type 1): P.COLOR"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("keep (Type 2): S.SNO = P.SNO"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("pk_SUPPLIER_sno of SUPPLIER (S) {S.SNO}: covered"),
            std::string::npos)
      << proof;
  EXPECT_NE(proof.find("pk_PARTS_sno_pno of PARTS (P)"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("Theorem 1"), std::string::npos) << proof;
}

TEST_F(AnalysisTest, Example2ProofNamesMissingColumns) {
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("DISTINCT is required"), std::string::npos) << proof;
  EXPECT_NE(proof.find("NOT covered"), std::string::npos) << proof;
  EXPECT_NE(proof.find("conclusion: NO"), std::string::npos) << proof;
}

TEST_F(AnalysisTest, Example4And5ProofWalksClosure) {
  // Example 5 traces Algorithm 1 over Example 4's query: the projected
  // columns seed V, the host variable binds P.SNO (Type 1), and both
  // keys end up covered.
  PlanPtr plan = Bind(
      "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P "
      "WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(verdict->proof.recorded);
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("keep (Type 1): P.SNO = :SUPPLIER_NO"),
            std::string::npos)
      << proof;
  EXPECT_NE(proof.find("initially bound: {S.SNO"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("+ P.SNO via P.SNO = :SUPPLIER_NO (Type 1)"),
            std::string::npos)
      << proof;
  EXPECT_NE(proof.find("pk_PARTS_sno_pno of PARTS (P) {P.SNO, P.PNO}: "
                       "covered"),
            std::string::npos)
      << proof;
  EXPECT_NE(proof.find("conclusion: YES"), std::string::npos) << proof;
  // Structured fields, not just the rendering: one covered key per
  // FROM table (coverage short-circuits a table's remaining keys).
  EXPECT_EQ(verdict->proof.keys.size(), 2u);
  for (const ProofKeyOutcome& key : verdict->proof.keys) {
    EXPECT_TRUE(key.covered()) << key.key_name;
  }
}

TEST_F(AnalysisTest, Example6ProofUsesUniqueConstraintKey) {
  // The UNIQUE constraint on OEM_PNO is a candidate key; projecting it
  // proves uniqueness without touching the primary key.
  PlanPtr plan = Bind(
      "SELECT DISTINCT P.OEM_PNO, P.PNAME FROM PARTS P "
      "WHERE P.COLOR = 'RED'");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->distinct_unnecessary);
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("uq_PARTS_oem_pno of PARTS (P) {P.OEM_PNO}: covered"),
            std::string::npos)
      << proof;
}

TEST_F(AnalysisTest, Example7SubqueryProofProven) {
  PlanPtr plan = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
      "WHERE S.SNAME = :SUPPLIER_NAME AND EXISTS "
      "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)");
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  const ExistsNode* exists = As<ExistsNode>(project->input());
  ASSERT_NE(exists, nullptr);
  auto verdict = TestSubqueryAtMostOneMatch(*exists);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(verdict->proof.recorded);
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("at most one inner row"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("pk_PARTS_sno_pno"), std::string::npos) << proof;
  EXPECT_NE(proof.find("conclusion: PROVEN"), std::string::npos) << proof;
  EXPECT_NE(proof.find("Theorem 2"), std::string::npos) << proof;
}

TEST_F(AnalysisTest, Example8SubqueryProofNotProven) {
  PlanPtr plan = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  const ExistsNode* exists = As<ExistsNode>(project->input());
  ASSERT_NE(exists, nullptr);
  auto verdict = TestSubqueryAtMostOneMatch(*exists);
  ASSERT_TRUE(verdict.ok());
  std::string proof = verdict->ExplainProof();
  EXPECT_NE(proof.find("more than one inner match possible"),
            std::string::npos)
      << proof;
  EXPECT_NE(proof.find("conclusion: NOT PROVEN"), std::string::npos)
      << proof;
  EXPECT_NE(proof.find("missing"), std::string::npos) << proof;
}

TEST_F(AnalysisTest, Example9IntersectProofFallsBackToFdDetector) {
  // Algorithm 1 does not handle set operators; the combined analyzer's
  // FD detector proves the INTERSECT's DISTINCT redundant and the proof
  // says which detector spoke.
  PlanPtr plan = Bind(
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
      "INTERSECT "
      "SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'");
  ASSERT_NE(plan, nullptr);
  UniquenessVerdict verdict = AnalyzeDistinct(plan);
  EXPECT_TRUE(verdict.distinct_unnecessary);
  std::string proof = verdict.ExplainProof();
  EXPECT_NE(proof.find("FD/key propagation"), std::string::npos) << proof;
  EXPECT_NE(proof.find("DISTINCT is unnecessary"), std::string::npos)
      << proof;
}

TEST_F(AnalysisTest, DerivePropertiesProductKeys) {
  PlanPtr plan = Bind(
      "SELECT S.SNO, P.SNO, P.PNO FROM SUPPLIER S, PARTS P");
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  DerivedProperties props = DeriveProperties(project->input());
  // Keys of the product: {S.SNO} ⊕ {P.SNO, P.PNO} and {S.SNO} ⊕ {OEM}.
  EXPECT_EQ(props.width, 10u);
  EXPECT_GE(props.keys.size(), 2u);
}

TEST_F(AnalysisTest, WideSelfJoinKeepsBoundedKeys) {
  // Twelve PARTS: Key(R) ⊕ Key(S) alone would give the product 2^12 =
  // 4,096 keys.
  PlanPtr plan = Bind(PartsSelfJoinSql(12));
  ASSERT_NE(plan, nullptr);
  const ProjectNode* project = As<ProjectNode>(plan);
  ASSERT_NE(project, nullptr);
  DerivedProperties props = DeriveProperties(project->input());
  EXPECT_EQ(props.width, 12 * 5u);
  EXPECT_FALSE(props.keys.empty());
  EXPECT_LE(props.keys.size(), kMaxDerivedKeys);
  EXPECT_LE(DeriveProperties(plan).keys.size(), kMaxDerivedKeys);
}

TEST_F(AnalysisTest, DuplicateFreeDetection) {
  auto duplicate_free = [&](const std::string& sql) {
    return DeriveProperties(Bind(sql)).IsDuplicateFree();
  };
  EXPECT_TRUE(duplicate_free("SELECT SNO FROM SUPPLIER"));
  EXPECT_FALSE(duplicate_free("SELECT SNAME FROM SUPPLIER"));
  EXPECT_TRUE(duplicate_free("SELECT DISTINCT SNAME FROM SUPPLIER"));
  EXPECT_TRUE(duplicate_free("SELECT SNAME FROM SUPPLIER WHERE SNO = 3"));
}

TEST_F(AnalysisTest, UnsupportedShapesReportUnsupported) {
  PlanPtr plan = Bind(
      "SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM AGENTS");
  ASSERT_NE(plan, nullptr);
  auto verdict = AnalyzeDistinctAlgorithm1(plan);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kUnsupported);
  // The combined analyzer falls back to FD propagation.
  UniquenessVerdict combined = AnalyzeDistinct(plan);
  EXPECT_TRUE(combined.has_distinct);
  // Left operand projects SUPPLIER's key ⇒ duplicate-free ⇒ the
  // DISTINCT of the INTERSECT is redundant (pre-Corollary 2 note).
  EXPECT_TRUE(combined.distinct_unnecessary);
}

}  // namespace
}  // namespace uniqopt
