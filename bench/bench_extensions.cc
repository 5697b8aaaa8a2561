// Experiments X12–X14: the §7 future-work extensions implemented on top
// of the paper's machinery.
//
//  - X12 JoinElimination_*: inclusion-dependency join pruning (King) —
//    the FK join to SUPPLIER disappears entirely.
//  - X13 SemanticPredicate_*: true-interpreted predicate reasoning —
//    implied conjuncts dropped, contradictions short-circuit to an
//    empty plan without scanning.
//  - X14 GroupByOnKey_*: single-row-group aggregation collapses into a
//    projection.
//
// X15 (the SQL→DL/I translator under the always-join vs the
// uniqueness-gated policy) is X8 itself: bench_ims_gateway runs only the
// translator's programs.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace uniqopt {
namespace bench {
namespace {

// ----------------------------------------------------- X12 join elimination
void BM_JoinElimination_Off(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(
      db, "SELECT P.PNO, P.PNAME FROM PARTS P, SUPPLIER S "
          "WHERE P.SNO = S.SNO");
  RewriteOptions opts;
  opts.join_elimination = false;
  plan = MustRewrite(plan, opts);
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustExecute(plan, db);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_JoinElimination_Off)->Arg(1000)->Arg(5000);

void BM_JoinElimination_On(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(
      db, "SELECT P.PNO, P.PNAME FROM PARTS P, SUPPLIER S "
          "WHERE P.SNO = S.SNO");
  plan = MustRewrite(plan);
  UNIQOPT_DCHECK_MSG(plan->ToString().find("SUPPLIER") == std::string::npos,
                     "join elimination did not fire");
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustExecute(plan, db);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_JoinElimination_On)->Arg(1000)->Arg(5000);

// ------------------------------------------------ X13 semantic predicates
void BM_SemanticPredicate_ImpliedKept(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(
      db, "SELECT P.PNO FROM PARTS P WHERE P.SNO >= 1 AND "
          "P.COLOR = 'RED'");
  RewriteOptions opts;
  opts.semantic_predicates = false;
  plan = MustRewrite(plan, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(plan, db));
  }
}
BENCHMARK(BM_SemanticPredicate_ImpliedKept)->Arg(5000);

void BM_SemanticPredicate_ImpliedDropped(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(
      db, "SELECT P.PNO FROM PARTS P WHERE P.SNO >= 1 AND "
          "P.COLOR = 'RED'");
  plan = MustRewrite(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(plan, db));
  }
}
BENCHMARK(BM_SemanticPredicate_ImpliedDropped)->Arg(5000);

void BM_SemanticPredicate_ContradictionScan(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(db, "SELECT SNAME FROM SUPPLIER WHERE SNO > " +
                                  std::to_string(state.range(0) + 1));
  RewriteOptions opts;
  opts.semantic_predicates = false;
  plan = MustRewrite(plan, opts);
  ExecStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(plan, db, {}, &stats));
  }
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
}
BENCHMARK(BM_SemanticPredicate_ContradictionScan)->Arg(5000);

void BM_SemanticPredicate_ContradictionEmpty(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 20);
  PlanPtr plan = MustBind(db, "SELECT SNAME FROM SUPPLIER WHERE SNO > " +
                                  std::to_string(state.range(0) + 1));
  plan = MustRewrite(plan);
  ExecStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(plan, db, {}, &stats));
  }
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
}
BENCHMARK(BM_SemanticPredicate_ContradictionEmpty)->Arg(5000);

// ------------------------------------------------- X14 group-by on a key
void BM_GroupByOnKey_HashAggregate(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 10);
  PlanPtr plan = MustBind(
      db, "SELECT SNO, SUM(BUDGET) FROM SUPPLIER GROUP BY SNO");
  RewriteOptions opts;
  opts.group_by_elimination = false;
  plan = MustRewrite(plan, opts);
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustExecute(plan, db);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_GroupByOnKey_HashAggregate)->Arg(5000)->Arg(20000);

void BM_GroupByOnKey_Projection(benchmark::State& state) {
  const Database& db = GetSupplierDb(static_cast<size_t>(state.range(0)), 10);
  PlanPtr plan = MustBind(
      db, "SELECT SNO, SUM(BUDGET) FROM SUPPLIER GROUP BY SNO");
  plan = MustRewrite(plan);
  UNIQOPT_DCHECK_MSG(As<ProjectNode>(plan) != nullptr &&
                         plan->ToString().find("Aggregate") ==
                             std::string::npos,
                     "group-by elimination did not fire");
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustExecute(plan, db);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_GroupByOnKey_Projection)->Arg(5000)->Arg(20000);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
