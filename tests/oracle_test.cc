// A brute-force semantic oracle for Theorem 1: enumerate *all* small
// instances of a two-table schema and check, per query:
//   - soundness: whenever a detector answers YES, no instance produces
//     duplicate rows (the sufficiency direction);
//   - witness existence: for queries whose condition genuinely fails,
//     some instance produces duplicates (the necessity direction — the
//     paper's Theorem 1 proof constructs exactly such instances).
//
// Schema: R(A key, B nullable), S(C key, D nullable); domains {1, 2}
// for keys, {1, 2, NULL} for non-keys; instances of up to 2 rows per
// table. This is small enough to enumerate exhaustively (≈ 21 instances
// per table including the empty one) yet rich enough to exercise keys,
// equality closure, and NULL behaviour.

#include <gtest/gtest.h>

#include "analysis/uniqueness.h"
#include "test_util.h"

namespace uniqopt {
namespace {

/// All valid instances of a table (K NOT NULL key, V nullable): the
/// empty instance, all single rows, and all two-row combinations with
/// distinct keys.
std::vector<std::vector<Row>> EnumerateInstances() {
  std::vector<Value> keys = {Value::Integer(1), Value::Integer(2)};
  std::vector<Value> values = {Value::Integer(1), Value::Integer(2),
                               Value::Null(TypeId::kInteger)};
  std::vector<Row> tuples;
  for (const Value& k : keys) {
    for (const Value& v : values) {
      tuples.push_back(Row({k, v}));
    }
  }
  std::vector<std::vector<Row>> instances;
  instances.push_back({});
  for (const Row& t : tuples) instances.push_back({t});
  for (size_t i = 0; i < tuples.size(); ++i) {
    for (size_t j = i + 1; j < tuples.size(); ++j) {
      if (tuples[i][0].NullSafeEquals(tuples[j][0])) continue;  // key!
      instances.push_back({tuples[i], tuples[j]});
    }
  }
  return instances;
}

struct OracleCase {
  const char* name;
  const char* sql;
  /// Ground truth: is DISTINCT redundant over *all* valid instances?
  bool redundant;
};

// The printed parameter becomes part of the registered test name; print
// the case's name so test names stay the same from run to run (by
// default gtest prints the struct's raw bytes, including the address of
// `sql`).
void PrintTo(const OracleCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class OracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleTest, ExhaustiveInstanceEnumeration) {
  const OracleCase& test_case = GetParam();
  std::vector<std::vector<Row>> instances = EnumerateInstances();

  bool found_duplicate_witness = false;
  bool analyzer_yes = false;
  size_t executed = 0;

  for (const std::vector<Row>& r_rows : instances) {
    for (const std::vector<Row>& s_rows : instances) {
      Database db;
      ASSERT_OK(db.ExecuteDdl(
          "CREATE TABLE R (A INTEGER NOT NULL, B INTEGER, "
          "PRIMARY KEY (A))"));
      ASSERT_OK(db.ExecuteDdl(
          "CREATE TABLE S (C INTEGER NOT NULL, D INTEGER, "
          "PRIMARY KEY (C))"));
      ASSERT_OK_AND_ASSIGN(Table * r, db.GetTable("R"));
      ASSERT_OK_AND_ASSIGN(Table * s, db.GetTable("S"));
      for (const Row& row : r_rows) ASSERT_OK(r->Insert(row));
      for (const Row& row : s_rows) ASSERT_OK(s->Insert(row));

      Binder binder(&db.catalog());
      auto bound = binder.BindSql(test_case.sql);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      if (executed == 0) {
        // The analyzer verdict is instance-independent; compute once.
        UniquenessVerdict verdict = AnalyzeDistinct(bound->plan);
        ASSERT_TRUE(verdict.has_distinct);
        analyzer_yes = verdict.distinct_unnecessary;
      }
      // Execute the ALL-mode variant and look for duplicates.
      const ProjectNode* project = As<ProjectNode>(bound->plan);
      ASSERT_NE(project, nullptr);
      PlanPtr all_mode = ProjectNode::Make(
          project->input(), DuplicateMode::kAll, project->columns());
      ExecContext ctx;
      auto rows = ExecutePlan(all_mode, db, &ctx);
      ASSERT_TRUE(rows.ok());
      if (HasDuplicates(*rows)) {
        found_duplicate_witness = true;
        // Soundness would already be violated; fail fast with context.
        ASSERT_FALSE(analyzer_yes)
            << test_case.sql << "\nanalyzer said YES but instance R="
            << RowsToString(std::vector<Row>(r_rows)) << "S="
            << RowsToString(std::vector<Row>(s_rows)) << "duplicates:\n"
            << RowsToString(*rows);
      }
      ++executed;
    }
  }

  // 16 instances per table (1 empty + 6 singletons + 9 key-distinct
  // pairs) ⇒ 256 combinations.
  EXPECT_EQ(executed, 256u);
  if (test_case.redundant) {
    EXPECT_FALSE(found_duplicate_witness) << test_case.sql;
  } else {
    // Necessity direction: Theorem 1's construction guarantees a
    // witness exists among small instances.
    EXPECT_TRUE(found_duplicate_witness) << test_case.sql;
    EXPECT_FALSE(analyzer_yes) << test_case.sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, OracleTest,
    ::testing::Values(
        // Key projected: never duplicates.
        OracleCase{"KeyProjected", "SELECT DISTINCT A FROM R", true},
        OracleCase{"KeyAndNonKeyProjected", "SELECT DISTINCT A, B FROM R",
                   true},
        // Non-key projected: duplicates possible (two keys, same B —
        // including both NULL, which DISTINCT treats as equal).
        OracleCase{"NonKeyProjected", "SELECT DISTINCT B FROM R", false},
        // Constant-bound key.
        OracleCase{"ConstantBoundKey",
                   "SELECT DISTINCT B FROM R WHERE A = 1", true},
        // Join with both keys covered.
        OracleCase{"JoinBothKeysProjected",
                   "SELECT DISTINCT R.A, S.C FROM R, S "
                   "WHERE R.B = S.C",
                   true},
        // Join on non-key B = D: same (A, C) pair can only appear once
        // (keys of both sides projected) — still unique.
        OracleCase{"NonKeyJoinBothKeysProjected",
                   "SELECT DISTINCT R.A, S.C FROM R, S WHERE R.B = S.D",
                   true},
        // Join projecting only one side's key: the other side may
        // match twice.
        OracleCase{"NonKeyJoinOneKeyProjected",
                   "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.D",
                   false},
        // Equality closure binds the S key through the join.
        OracleCase{"EqualityClosureBindsKey",
                   "SELECT DISTINCT R.A, R.B FROM R, S WHERE R.B = S.C",
                   true},
        // Cross product without predicate: key ⊕ key is projected.
        OracleCase{"CrossProductKeysProjected",
                   "SELECT DISTINCT R.A, S.C FROM R, S", true},
        // Non-key columns only, joined: duplicates possible.
        OracleCase{"JoinNonKeysProjected",
                   "SELECT DISTINCT R.B, S.D FROM R, S WHERE R.A = S.C",
                   false}));

}  // namespace
}  // namespace uniqopt
