// Quickstart for the uniqopt library: build the paper's supplier
// database, ask whether a DISTINCT is redundant (Theorem 1 / Algorithm
// 1), rewrite the query, and execute both plans to compare the work.
//
//   $ quickstart
//
// The query is Example 1 of the paper: the DISTINCT is provably
// unnecessary because the projection covers the keys of both tables
// given the join predicate.

#include <cstdio>

#include "analysis/uniqueness.h"
#include "exec/planner.h"
#include "plan/binder.h"
#include "rewrite/rewriter.h"
#include "workload/supplier_schema.h"

namespace {

int Run() {
  using namespace uniqopt;

  // 1. Create the Figure 1 schema and load synthetic data.
  Database db;
  SupplierSchemaOptions schema_opts;
  Status st = CreateSupplierSchema(&db, schema_opts);
  if (!st.ok()) {
    std::fprintf(stderr, "schema: %s\n", st.ToString().c_str());
    return 1;
  }
  SupplierDataOptions data_opts;
  data_opts.num_suppliers = 200;
  data_opts.parts_per_supplier = 40;
  st = PopulateSupplierDatabase(&db, data_opts);
  if (!st.ok()) {
    std::fprintf(stderr, "data: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Parse and bind Example 1.
  const char* sql =
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
  std::printf("query:\n  %s\n\n", sql);
  Binder binder(&db.catalog());
  auto bound = binder.BindSql(sql);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("logical plan:\n%s\n", bound->plan->ToString().c_str());

  // 3. Run Algorithm 1 and show its proof (compare the paper's Ex. 5).
  auto verdict = AnalyzeDistinctAlgorithm1(bound->plan);
  if (!verdict.ok()) {
    std::fprintf(stderr, "analyze: %s\n",
                 verdict.status().ToString().c_str());
    return 1;
  }
  std::printf("Algorithm 1 proof:\n%s", verdict->proof.ToText().c_str());
  std::printf("verdict: DISTINCT is %s\n\n",
              verdict->distinct_unnecessary ? "UNNECESSARY" : "required");

  // 4. Rewrite and execute both plans, comparing the sort work.
  auto rewritten = RewritePlan(bound->plan);
  if (!rewritten.ok()) {
    std::fprintf(stderr, "rewrite: %s\n",
                 rewritten.status().ToString().c_str());
    return 1;
  }
  for (const AppliedRewrite& r : rewritten->applied) {
    std::printf("applied rewrite: %s — %s\n",
                RewriteRuleIdToString(r.rule), r.description.c_str());
  }

  ExecContext before_ctx;
  ExecContext after_ctx;
  auto before = ExecutePlan(bound->plan, db, &before_ctx);
  auto after = ExecutePlan(rewritten->plan, db, &after_ctx);
  if (!before.ok() || !after.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  std::printf("\noriginal plan:  %zu rows, stats: %s\n", before->size(),
              before_ctx.stats.ToString().c_str());
  std::printf("rewritten plan: %zu rows, stats: %s\n", after->size(),
              after_ctx.stats.ToString().c_str());
  std::printf(
      "\nsort comparisons avoided by removing the DISTINCT: %zu\n",
      before_ctx.stats.sort_comparisons - after_ctx.stats.sort_comparisons);
  return 0;
}

}  // namespace

int main() { return Run(); }
