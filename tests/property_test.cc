#include <gtest/gtest.h>

#include "analysis/uniqueness.h"
#include "parser/parser.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

/// Shared database with NULLs sprinkled into nullable columns so the
/// three-valued-logic paths are genuinely exercised.
class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 40;
    data.parts_per_supplier = 6;
    data.num_agents = 25;
    data.null_fraction = 0.15;
    data.seed = 7;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
  }

  Database db_;
};

/// Invariant 1 (soundness of Theorem 1's detectors): whenever any
/// analyzer answers YES for a DISTINCT query, executing the same query
/// *without* duplicate elimination yields no `=!`-duplicate rows.
TEST_P(PropertyTest, AnalyzerYesImpliesNoDuplicates) {
  RandomQueryOptions qopts;
  qopts.seed = GetParam();
  RandomQueryGenerator gen(qopts);
  Binder binder(&db_.catalog());
  int yes_count = 0;
  for (int i = 0; i < 120; ++i) {
    std::string sql = gen.NextQuery();
    auto bound = binder.BindSql(sql);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    UniquenessVerdict verdict = AnalyzeDistinct(bound->plan);
    if (!verdict.has_distinct || !verdict.distinct_unnecessary) continue;
    ++yes_count;
    // Execute the ALL-mode variant and assert duplicate-freedom.
    const ProjectNode* project = As<ProjectNode>(bound->plan);
    ASSERT_NE(project, nullptr) << sql;
    PlanPtr all_mode = ProjectNode::Make(project->input(), DuplicateMode::kAll,
                                         project->columns());
    ExecContext ctx;
    auto rows = ExecutePlan(all_mode, db_, &ctx);
    ASSERT_TRUE(rows.ok()) << sql;
    EXPECT_FALSE(HasDuplicates(*rows))
        << sql << "\n"
        << verdict.ExplainProof();
  }
  // The generator must produce at least a few detectable queries, or the
  // property is vacuous.
  EXPECT_GT(yes_count, 3) << "generator produced too few YES queries";
}

/// Invariant 2: the full rewrite pipeline preserves multiset semantics
/// on arbitrary generated queries.
TEST_P(PropertyTest, RewritePreservesMultisetSemantics) {
  RandomQueryOptions qopts;
  qopts.seed = GetParam() * 7919 + 13;
  qopts.always_distinct = false;
  qopts.group_by_probability = 0.25;
  RandomQueryGenerator gen(qopts);
  Binder binder(&db_.catalog());
  int applied_count = 0;
  for (int i = 0; i < 120; ++i) {
    std::string sql = gen.NextQuery();
    auto bound = binder.BindSql(sql);
    ASSERT_TRUE(bound.ok()) << sql;
    RewriteOptions ropts;
    ropts.join_to_subquery = (i % 2 == 0);
    if (ropts.join_to_subquery) {
      ropts.subquery_to_join = false;
      ropts.subquery_to_distinct_join = false;
    }
    auto rewritten = RewritePlan(bound->plan, ropts);
    ASSERT_TRUE(rewritten.ok()) << sql;
    if (!rewritten->applied.empty()) ++applied_count;
    ExecContext ctx1;
    ExecContext ctx2;
    auto before = ExecutePlan(bound->plan, db_, &ctx1);
    auto after = ExecutePlan(rewritten->plan, db_, &ctx2);
    ASSERT_TRUE(before.ok()) << sql;
    ASSERT_TRUE(after.ok()) << sql;
    EXPECT_TRUE(MultisetEquals(*before, *after))
        << sql << "\noriginal:\n"
        << bound->plan->ToString() << "rewritten:\n"
        << rewritten->plan->ToString();
  }
  EXPECT_GT(applied_count, 5) << "rewrites barely fired; property vacuous";
}

/// Invariant 3: every physical strategy computes the same multiset.
TEST_P(PropertyTest, PhysicalStrategiesAgree) {
  RandomQueryOptions qopts;
  qopts.seed = GetParam() * 104729 + 1;
  qopts.always_distinct = false;
  qopts.group_by_probability = 0.2;
  RandomQueryGenerator gen(qopts);
  for (int i = 0; i < 60; ++i) {
    std::string sql = gen.NextQuery();
    PhysicalOptions hash_opts;
    hash_opts.join = PhysicalOptions::JoinStrategy::kHash;
    hash_opts.distinct = PhysicalOptions::DistinctStrategy::kHash;
    PhysicalOptions nl_opts;
    nl_opts.join = PhysicalOptions::JoinStrategy::kNestedLoop;
    nl_opts.distinct = PhysicalOptions::DistinctStrategy::kSort;
    nl_opts.predicate_pushdown = false;
    auto a = RunSql(db_, sql, {}, hash_opts);
    auto b = RunSql(db_, sql, {}, nl_opts);
    ASSERT_TRUE(a.ok()) << sql << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << b.status().ToString();
    EXPECT_TRUE(MultisetEquals(*a, *b)) << sql;
  }
}

/// Invariant 4: the parser never crashes on mutated inputs — it returns
/// a Status for garbage.
TEST_P(PropertyTest, ParserRobustToMutation) {
  RandomQueryOptions qopts;
  qopts.seed = GetParam() + 555;
  RandomQueryGenerator gen(qopts);
  std::mt19937_64 rng(GetParam());
  const char junk[] = "()',.*;=<>:x0 ";
  for (int i = 0; i < 200; ++i) {
    std::string sql = gen.NextQuery();
    switch (rng() % 3) {
      case 0:  // truncate
        sql = sql.substr(0, rng() % (sql.size() + 1));
        break;
      case 1: {  // random substitution
        if (!sql.empty()) {
          sql[rng() % sql.size()] = junk[rng() % (sizeof(junk) - 1)];
        }
        break;
      }
      default: {  // random insertion
        sql.insert(sql.begin() + rng() % (sql.size() + 1),
                   junk[rng() % (sizeof(junk) - 1)]);
        break;
      }
    }
    // Must not crash; status may be anything.
    auto parsed = ParseQuery(sql);
    if (parsed.ok()) {
      Binder binder(&db_.catalog());
      (void)binder.Bind(**parsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace uniqopt
