// Experiment X1/X2 (§5.1, Examples 1 & 2): cost of a redundant DISTINCT
// and the speedup from removing it via Theorem 1.
//
// Series:
//  - Example1_WithDistinct_Sort:   π_Dist via sort (the cost the paper
//    says optimizers should avoid), growing with the result size;
//  - Example1_WithDistinct_Hash:   π_Dist via hashing (a cheaper
//    duplicate-elimination baseline — still avoidable work);
//  - Example1_DistinctRemoved:     the rewritten plan (Algorithm 1 says
//    YES);
//  - Example2_DistinctRequired:    the projection onto SNAME — the
//    rewrite must NOT fire; sort cost is the price of correctness;
//  - NonKeySname_DistinctRequired: DISTINCT SNAME over the SUPPLIER ⋈
//    PARTS key join on 1,000 × 5 rows, the class that sets the request
//    benchmark's analytic_join p99 (5,000 joined rows sorted to their
//    distinct names).
//
// Expected shape (paper): removal wins by the full sort cost; the gap
// grows superlinearly in |result| for the sort baseline.

#include <benchmark/benchmark.h>

#include "analysis/uniqueness.h"
#include "bench_util.h"

namespace uniqopt {
namespace bench {
namespace {

constexpr const char* kExample1 =
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
constexpr const char* kExample2 =
    "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
constexpr const char* kNonKeySname =
    "SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

/// The supplier database of range(0) suppliers × 20 parts.
const Database& ScaledDb(const benchmark::State& state) {
  return GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
}

void RunPlanBenchmark(benchmark::State& state, const Database& db,
                      const char* sql, bool rewrite,
                      PhysicalOptions::DistinctStrategy distinct) {
  PlanPtr plan = MustBind(db, sql);
  if (rewrite) plan = MustRewrite(plan);
  PhysicalOptions physical;
  physical.distinct = distinct;
  ExecStats stats;
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustExecute(plan, db, physical, &stats);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["sort_cmp"] = static_cast<double>(stats.sort_comparisons);
  state.counters["rows_sorted"] = static_cast<double>(stats.rows_sorted);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}

void BM_Example1_WithDistinct_Sort(benchmark::State& state) {
  RunPlanBenchmark(state, ScaledDb(state), kExample1, /*rewrite=*/false,
                   PhysicalOptions::DistinctStrategy::kSort);
}
BENCHMARK(BM_Example1_WithDistinct_Sort)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Example1_WithDistinct_Hash(benchmark::State& state) {
  RunPlanBenchmark(state, ScaledDb(state), kExample1, /*rewrite=*/false,
                   PhysicalOptions::DistinctStrategy::kHash);
}
BENCHMARK(BM_Example1_WithDistinct_Hash)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Example1_DistinctRemoved(benchmark::State& state) {
  // Sanity: the rewrite must fire for Example 1.
  const Database& db = GetSupplierDb(100, 20);
  auto verdict = AnalyzeDistinct(MustBind(db, kExample1));
  UNIQOPT_DCHECK(verdict.distinct_unnecessary);
  RunPlanBenchmark(state, ScaledDb(state), kExample1, /*rewrite=*/true,
                   PhysicalOptions::DistinctStrategy::kSort);
}
BENCHMARK(BM_Example1_DistinctRemoved)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Example2_DistinctRequired(benchmark::State& state) {
  // Sanity: the rewrite must NOT fire for Example 2 (SNAME projection).
  const Database& db = GetSupplierDb(100, 20);
  auto verdict = AnalyzeDistinct(MustBind(db, kExample2));
  UNIQOPT_DCHECK(!verdict.distinct_unnecessary);
  RunPlanBenchmark(state, ScaledDb(state), kExample2, /*rewrite=*/true,
                   PhysicalOptions::DistinctStrategy::kSort);
}
BENCHMARK(BM_Example2_DistinctRequired)->Arg(100)->Arg(1000)->Arg(5000);

void BM_NonKeySname_DistinctRequired(benchmark::State& state) {
  // The rewriter leaves this plan as bound (its DISTINCT must stay), so
  // the bound plan runs and the rewrite counters and timings that
  // scripts/bench_compare.py gates keep the mix of the series above.
  RunPlanBenchmark(state, GetSupplierDb(1000, 5), kNonKeySname,
                   /*rewrite=*/false, PhysicalOptions::DistinctStrategy::kSort);
}
BENCHMARK(BM_NonKeySname_DistinctRequired);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
