// The symbolic equivalence prover must (a) certify every rewrite the
// optimizer actually fires — the paper's worked examples and a 300+
// random-query sweep end EQUIV_PROVEN or (rarely) EQUIV_UNPROVEN, never
// EQUIV_REFUTED — and (b) refute seeded unsound evidence with a concrete
// symbolic counterexample witness: a forged DISTINCT drop with no
// supporting key, and a Theorem 3 lowering whose correlation uses plain
// `=` over nullable columns. The schema linter half is exercised against
// deliberately inconsistent catalogs.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "equiv/equiv.h"
#include "equiv/schema_lint.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

using equiv::Certificate;
using equiv::Verdict;

class EquivTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    optimizer_ = std::make_unique<Optimizer>(&db_);
  }

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

  /// Rewrites `sql` under `options` and certifies every fired rewrite.
  std::vector<Certificate> Certify(const std::string& sql,
                                   const RewriteOptions& options = {}) {
    std::vector<Certificate> certs;
    PlanPtr plan = Bind(sql);
    if (plan == nullptr) return certs;
    auto rewritten = RewritePlan(plan, options);
    EXPECT_TRUE(rewritten.ok()) << sql;
    if (!rewritten.ok()) return certs;
    EXPECT_FALSE(rewritten->applied.empty())
        << sql << ": expected at least one rewrite to fire";
    for (const AppliedRewrite& r : rewritten->applied) {
      certs.push_back(equiv::CertifyRewrite(r));
    }
    return certs;
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
};

// ---------------------------------------------------------------------------
// Production rewrites over the paper's worked examples: all proven.
// ---------------------------------------------------------------------------

TEST_F(EquivTest, PaperExampleRewritesAreAllProven) {
  struct Example {
    const char* id;
    const char* sql;
  };
  const Example examples[] = {
      {"example1 distinct removal",
       "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"},
      {"example4 distinct removal with host variable",
       "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, "
       "PARTS P WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO"},
      {"example6 distinct removal via join transitivity",
       "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, "
       "PARTS P WHERE S.SNAME = :SUPPLIER_NAME AND S.SNO = P.SNO"},
      {"example7 subquery to join (Theorem 2)",
       "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE "
       "S.SNAME = :SUPPLIER_NAME AND EXISTS (SELECT * FROM PARTS P "
       "WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)"},
      {"example8 subquery to distinct join (Corollary 1)",
       "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
       "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"},
      {"example9 intersect to exists (Theorem 3)",
       "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
       "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE "
       "A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"},
      {"intersect all to exists (Corollary 2)",
       "SELECT SNO FROM SUPPLIER INTERSECT ALL SELECT SNO FROM PARTS"},
      {"except to not exists",
       "SELECT SNO FROM SUPPLIER EXCEPT SELECT SNO FROM AGENTS"},
      {"join elimination over the declared foreign key",
       "SELECT P.PNO, P.PNAME FROM PARTS P, SUPPLIER S "
       "WHERE P.SNO = S.SNO"},
      {"implied predicate removal against the CHECK range",
       "SELECT SNAME FROM SUPPLIER WHERE SNO BETWEEN 1 AND 499"},
      {"empty result detection outside the CHECK range",
       "SELECT SNAME FROM SUPPLIER WHERE SNO = 600"},
      {"group-by elimination on a covered key",
       "SELECT SNO, SUM(BUDGET) FROM SUPPLIER GROUP BY SNO"},
  };
  for (const Example& ex : examples) {
    std::vector<Certificate> certs = Certify(ex.sql);
    ASSERT_FALSE(certs.empty()) << ex.id;
    for (const Certificate& cert : certs) {
      EXPECT_EQ(cert.verdict, Verdict::kProven)
          << ex.id << "\n" << cert.ToString();
      EXPECT_TRUE(cert.witness.empty()) << ex.id;
    }
  }
}

TEST_F(EquivTest, OptInConverseRulesAreProven) {
  // §6 join → subquery, valid when the discarded side matches at most
  // once (Theorem 2 read backwards).
  RewriteOptions nav;
  nav.join_to_subquery = true;
  nav.subquery_to_join = false;
  nav.subquery_to_distinct_join = false;
  for (const Certificate& cert :
       Certify("SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
               "WHERE S.SNO = P.SNO AND P.PNO = :PN",
               nav)) {
    EXPECT_EQ(cert.verdict, Verdict::kProven) << cert.ToString();
  }

  // §5.3's converse observation: EXISTS back to INTERSECT.
  PlanPtr plan = Bind(
      "SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM AGENTS");
  ASSERT_NE(plan, nullptr);
  auto forward = RewritePlan(plan);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(forward->Applied(RewriteRuleId::kIntersectToExists));
  RewriteOptions back_opts;
  back_opts.exists_to_intersect = true;
  back_opts.intersect_to_exists = false;
  back_opts.intersect_all_to_exists = false;
  back_opts.except_to_not_exists = false;
  auto back = RewritePlan(forward->plan, back_opts);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->Applied(RewriteRuleId::kExistsToIntersect));
  for (const AppliedRewrite& r : back->applied) {
    Certificate cert = equiv::CertifyRewrite(r);
    EXPECT_EQ(cert.verdict, Verdict::kProven) << cert.ToString();
  }
}

// ---------------------------------------------------------------------------
// Seeded unsound fixtures: refuted with a symbolic witness.
// ---------------------------------------------------------------------------

TEST_F(EquivTest, ForgedDistinctDropIsRefutedWithWitness) {
  // Example 2: S.SNAME carries no key, so two suppliers sharing a name
  // (legal under the declared constraints) duplicate the output row.
  PlanPtr before = Bind(
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_NE(before, nullptr);
  const ProjectNode* proj = As<ProjectNode>(before);
  ASSERT_NE(proj, nullptr);
  AppliedRewrite forged;
  forged.rule = RewriteRuleId::kRemoveRedundantDistinct;
  forged.description = "forged: no key supports this projection";
  forged.evidence.before = before;
  forged.evidence.after =
      ProjectNode::Make(proj->input(), DuplicateMode::kAll, proj->columns());
  forged.evidence.condition_proven = true;

  Certificate cert = equiv::CertifyRewrite(forged);
  EXPECT_EQ(cert.verdict, Verdict::kRefuted) << cert.ToString();
  EXPECT_FALSE(cert.witness.empty()) << cert.ToString();
  // The witness is a two-row instance: both rows agree on the
  // projection, so the DISTINCT side emits one row and the ALL side two.
  EXPECT_NE(cert.witness.find("r1"), std::string::npos) << cert.witness;
  EXPECT_NE(cert.witness.find("r2"), std::string::npos) << cert.witness;
  EXPECT_NE(cert.witness.find("differ"), std::string::npos) << cert.witness;
}

TEST_F(EquivTest, PlainEqualityOverNullableCorrelationIsRefuted) {
  // A forged Theorem 3 lowering comparing nullable SNAME/ANAME with
  // plain `=` instead of the null-safe `=!`: the NULL tuple survives the
  // INTERSECT (NULL =! NULL is true) but drops out of the EXISTS.
  PlanPtr supplier = GetNode::Make(Def("SUPPLIER"), "S");
  PlanPtr agents = GetNode::Make(Def("AGENTS"), "A");
  PlanPtr outer = ProjectNode::Make(supplier, DuplicateMode::kAll, {1});
  PlanPtr sub = ProjectNode::Make(agents, DuplicateMode::kAll, {2});
  ASSERT_TRUE(outer->schema().column(0).nullable);
  ASSERT_TRUE(sub->schema().column(0).nullable);
  auto setop = SetOpNode::Make(SetOpAlgebra::kIntersect,
                               DuplicateMode::kDist, outer, sub);
  ASSERT_TRUE(setop.ok()) << setop.status().ToString();
  ExprPtr plain_eq = Expr::Compare(
      CompareOp::kEq, Expr::ColumnRef(0, "S.SNAME", TypeId::kString),
      Expr::ColumnRef(1, "A.ANAME", TypeId::kString));

  AppliedRewrite forged;
  forged.rule = RewriteRuleId::kIntersectToExists;
  forged.description = "forged: 3VL-unsound correlation";
  forged.evidence.before = *setop;
  forged.evidence.after = ExistsNode::Make(outer, sub, plain_eq, false);
  forged.evidence.condition_proven = true;

  Certificate cert = equiv::CertifyRewrite(forged);
  EXPECT_EQ(cert.verdict, Verdict::kRefuted) << cert.ToString();
  EXPECT_FALSE(cert.witness.empty()) << cert.ToString();
  EXPECT_NE(cert.witness.find("NULL"), std::string::npos) << cert.witness;
}

TEST_F(EquivTest, CorrectRewriteBeyondTheProverIsUnprovenNotRefuted) {
  // AGENTS is reached only through its key ANO; the PARTS key needs
  // A.SNO, which the prover's equality closure cannot derive from ANO
  // coverage (that step needs FD expansion, deliberately out of scope
  // for the independent checker). The rewrite is semantically correct —
  // the production analyzer proves it with the stronger machinery — so
  // the honest verdict is EQUIV_UNPROVEN, never EQUIV_REFUTED.
  PlanPtr plan = Bind(
      "SELECT DISTINCT A.ANO, P.PNAME FROM AGENTS A, PARTS P "
      "WHERE A.SNO = P.SNO AND P.PNO = :P");
  ASSERT_NE(plan, nullptr);
  auto rewritten = RewritePlan(plan);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_TRUE(rewritten->Applied(RewriteRuleId::kRemoveRedundantDistinct))
      << "production analyzer no longer proves this fixture; pick a new "
         "beyond-the-prover query";
  for (const AppliedRewrite& r : rewritten->applied) {
    if (r.rule != RewriteRuleId::kRemoveRedundantDistinct) continue;
    Certificate cert = equiv::CertifyRewrite(r);
    EXPECT_EQ(cert.verdict, Verdict::kUnproven) << cert.ToString();
    EXPECT_TRUE(cert.witness.empty()) << cert.ToString();
    EXPECT_FALSE(cert.detail.empty());
  }
}

TEST_F(EquivTest, DistinctOverGroupByIsProvenFromTheGroupColumns) {
  // γ_G's output is keyed by G: a projection that keeps every group
  // column is duplicate-free whatever the aggregates are.
  for (const Certificate& cert :
       Certify("SELECT DISTINCT P.OEM_PNO, P.PNO, COUNT(*) FROM PARTS P "
               "GROUP BY P.OEM_PNO, P.PNO")) {
    EXPECT_EQ(cert.rule, "RemoveRedundantDistinct") << cert.ToString();
    EXPECT_EQ(cert.verdict, Verdict::kProven) << cert.ToString();
  }

  // Dropping a group column loses that key: two groups (s, 1) and
  // (s, 2) both project to s. A forged DISTINCT drop must not prove.
  PlanPtr before = Bind(
      "SELECT DISTINCT P.SNO, COUNT(*) FROM PARTS P GROUP BY P.SNO, P.PNO");
  ASSERT_NE(before, nullptr);
  const ProjectNode* proj = As<ProjectNode>(before);
  ASSERT_NE(proj, nullptr);
  ASSERT_EQ(proj->input()->kind(), PlanKind::kAggregate);
  AppliedRewrite forged;
  forged.rule = RewriteRuleId::kRemoveRedundantDistinct;
  forged.description = "forged: a group column is projected away";
  forged.evidence.before = before;
  forged.evidence.after =
      ProjectNode::Make(proj->input(), DuplicateMode::kAll, proj->columns());
  forged.evidence.condition_proven = true;
  Certificate cert = equiv::CertifyRewrite(forged);
  EXPECT_NE(cert.verdict, Verdict::kProven) << cert.ToString();
}

TEST_F(EquivTest, EvidenceWithoutSubtreesIsUnproven) {
  AppliedRewrite hollow;
  hollow.rule = RewriteRuleId::kRemoveRedundantDistinct;
  hollow.evidence.condition_proven = true;
  Certificate cert = equiv::CertifyRewrite(hollow);
  EXPECT_EQ(cert.verdict, Verdict::kUnproven);
  EXPECT_TRUE(cert.witness.empty());
}

// ---------------------------------------------------------------------------
// Pipeline surfacing: verdicts ride the VerifyReport through Prepare.
// ---------------------------------------------------------------------------

TEST_F(EquivTest, PrepareSurfacesCertificatesInVerifyReport) {
  auto prepared = optimizer_->Prepare(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->verified);
  const verify::VerifyReport& report = prepared->verification;
  EXPECT_EQ(report.certificates.size(), prepared->rewrites.size());
  EXPECT_GE(report.equiv_proven, 1u) << report.ToString();
  EXPECT_EQ(report.equiv_refuted, 0u) << report.ToString();
  EXPECT_NE(report.Summary().find("equiv"), std::string::npos)
      << report.Summary();
  EXPECT_NE(report.ToString().find("EQUIV_PROVEN"), std::string::npos)
      << report.ToString();

  // The prover can be switched off per optimizer; the report then
  // carries no certificates.
  Optimizer no_equiv(&db_);
  no_equiv.set_check_equiv(false);
  auto plain = no_equiv.Prepare(
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->verification.certificates.empty());
}

// ---------------------------------------------------------------------------
// Random sweep: no production rewrite is ever refuted.
// ---------------------------------------------------------------------------

/// Upper bound on the sweep's EQUIV_UNPROVEN share. The prover's
/// closure deliberately has no key -> all-columns FD expansion (it must
/// stay independent of src/analysis/), so a rewrite whose uniqueness
/// rides on such an FD, or on a foreign key, is honestly UNPROVEN. At
/// the pinned seeds that leaves five of 130 rewrites (0.038), each a
/// DISTINCT removal whose chase is blocked on pk_AGENTS_ano or
/// uq_PARTS_oem_pno. A share past this means the prover lost power or
/// the rewriter started firing on weaker evidence.
constexpr double kMaxUnprovenShare = 0.05;

TEST_F(EquivTest, RandomSweepNeverRefutesAProductionRewrite) {
  size_t proven = 0;
  size_t unproven = 0;
  size_t queries = 0;
  for (uint64_t seed : {7u, 21u, 63u, 189u}) {
    RandomQueryOptions qopts;
    qopts.seed = seed;
    qopts.always_distinct = false;
    qopts.group_by_probability = 0.2;
    RandomQueryGenerator gen(qopts);
    for (int i = 0; i < 80; ++i) {
      std::string sql = gen.NextQuery();
      PlanPtr plan = Bind(sql);
      ASSERT_NE(plan, nullptr) << sql;
      auto rewritten = RewritePlan(plan);
      ASSERT_TRUE(rewritten.ok()) << sql;
      ++queries;
      for (const AppliedRewrite& r : rewritten->applied) {
        Certificate cert = equiv::CertifyRewrite(r);
        ASSERT_NE(cert.verdict, Verdict::kRefuted)
            << sql << "\n" << cert.ToString();
        if (cert.verdict == Verdict::kProven) {
          ++proven;
        } else {
          ++unproven;
        }
      }
    }
  }
  ASSERT_GE(queries, 300u);
  size_t total = proven + unproven;
  ASSERT_GT(total, 0u) << "sweep fired no rewrites at all";
  // The shares on every run, so each log carries the prover's baseline.
  // A refutation stops the sweep at the assertion above, so a run that
  // gets here refuted nothing.
  std::printf(
      "equiv sweep: queries=%zu rewrites=%zu proven=%zu unproven=%zu "
      "refuted=0 unproven_share=%.3f\n",
      queries, total, proven, unproven,
      static_cast<double>(unproven) / static_cast<double>(total));
  EXPECT_LE(static_cast<double>(unproven),
            kMaxUnprovenShare * static_cast<double>(total))
      << proven << " proven vs " << unproven << " unproven";
}

// ---------------------------------------------------------------------------
// Schema lint: catalog constraint consistency.
// ---------------------------------------------------------------------------

size_t CountKind(const std::vector<equiv::SchemaLintFinding>& findings,
                 equiv::SchemaLintKind kind) {
  size_t n = 0;
  for (const equiv::SchemaLintFinding& f : findings) {
    if (f.kind == kind) ++n;
  }
  return n;
}

TEST(SchemaLintTest, CleanSupplierCatalogHasNoFindings) {
  Database db;
  ASSERT_OK(CreateSupplierSchema(&db));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  EXPECT_TRUE(findings.empty()) << findings.size() << " finding(s), first: "
                                << findings.front().ToString();
}

TEST(SchemaLintTest, DuplicateAndRedundantKeysAreFlagged) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER NOT NULL, "
      "PRIMARY KEY (A), UNIQUE (A), UNIQUE (A, B))"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kDuplicateKey), 1u);
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kRedundantKey), 1u);
}

TEST(SchemaLintTest, UnsatisfiableCheckIsFlagged) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE U (A INTEGER NOT NULL, CHECK (A > 5 AND A < 3))"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kUnsatisfiableCheck),
            1u)
      << "findings: " << findings.size();
}

TEST(SchemaLintTest, NotNullSourceOntoNullableKeyIsFlagged) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE R (X INTEGER, UNIQUE (X))"));
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE S2 (Y INTEGER NOT NULL, "
      "FOREIGN KEY (Y) REFERENCES R (X))"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kNotNullFkConflict),
            1u);
}

TEST(SchemaLintTest, SelfReferentialForeignKeyCycleIsFlagged) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T2 (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A), "
      "FOREIGN KEY (B) REFERENCES T2 (A))"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kForeignKeyCycle), 1u);
}

TEST(SchemaLintTest, DroppedReferenceTargetBecomesDangling) {
  // Catalog::DropTable does not re-validate other tables' inclusion
  // dependencies; the linter is how the gap surfaces.
  Catalog catalog;
  {
    Schema rs;
    rs.AddColumn(Column{"", "K", TypeId::kInteger, /*nullable=*/false});
    TableDef r("REF_T", std::move(rs));
    ASSERT_OK(r.SetPrimaryKey({"K"}));
    ASSERT_OK(catalog.AddTable(std::move(r)));
  }
  {
    Schema cs;
    cs.AddColumn(Column{"", "X", TypeId::kInteger, /*nullable=*/false});
    TableDef c("CHILD", std::move(cs));
    ASSERT_OK(c.AddForeignKey({"X"}, "REF_T", {"K"}));
    ASSERT_OK(catalog.AddTable(std::move(c)));
  }
  EXPECT_TRUE(equiv::LintCatalog(catalog).empty());
  ASSERT_OK(catalog.DropTable("REF_T"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(catalog);
  EXPECT_GE(CountKind(findings, equiv::SchemaLintKind::kDanglingForeignKey),
            1u);
}

TEST(SchemaLintTest, FindingsPublishToTheAdvisorStore) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, PRIMARY KEY (A), UNIQUE (A))"));
  std::vector<equiv::SchemaLintFinding> findings =
      equiv::LintCatalog(db.catalog());
  ASSERT_FALSE(findings.empty());
  obs::AdvisorStore& store = obs::AdvisorStore::Global();
  store.Clear();
  if (!store.enabled()) GTEST_SKIP() << "advisor store disabled";
  size_t published = equiv::PublishSchemaFindings(findings);
  EXPECT_EQ(published, findings.size());
  EXPECT_GE(store.size(), 1u);
  EXPECT_NE(store.ToText().find("schema.lint"), std::string::npos)
      << store.ToText();
  store.Clear();
}

}  // namespace
}  // namespace uniqopt
