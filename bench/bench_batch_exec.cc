// Batch execution, measured end to end:
//
//   scan→filter→aggregate over a 100k-row SUPPLIER table, executed
//   tuple-at-a-time and on the batch (vectorized) path;
//
//   join + DISTINCT vs join with DISTINCT eliminated (the paper's
//   headline rewrite), both on the batch path.
//
// Histograms (consumed by scripts/bench_compare.py --exec-scaling and
// the BENCH_pr9.json gate):
//   bench.exec.serial.ns     tuple-at-a-time
//   bench.exec.batch.ns      batch path              (gate: >= 1.5x)
//   bench.exec.join_distinct.ns / join_eliminated.ns

#include "bench_util.h"

namespace uniqopt {
namespace bench {
namespace {

constexpr size_t kSuppliers = 100000;
constexpr size_t kPartsPerSupplier = 1;

// Range-predicate scan, the classic vectorization-friendly shape: the
// tuple path copies each 5-column row out of storage and interprets the
// Expr tree per row (two operand Value copies per comparison), the
// batch path borrows storage slices and runs the compiled
// PredicateProgram's inline integer loops over each selection vector.
const char* kScanFilterAggSql =
    "SELECT COUNT(*), MIN(SNO) FROM SUPPLIER "
    "WHERE SNO >= 10000 AND SNO < 50000";

PhysicalOptions MakePhysical(size_t batch_size) {
  PhysicalOptions physical;
  physical.batch_size = batch_size;
  return physical;
}

void RunScanFilterAgg(::benchmark::State& state, const char* series,
                      size_t batch_size) {
  const Database& db = GetSupplierDb(kSuppliers, kPartsPerSupplier);
  PlanPtr plan = MustBind(db, kScanFilterAggSql);
  PhysicalOptions physical = MakePhysical(batch_size);
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram(series);
  size_t rows = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    rows += MustExecute(plan, db, physical);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_ScanFilterAgg_SerialTuple(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.serial.ns", /*batch_size=*/0);
}
BENCHMARK(BM_ScanFilterAgg_SerialTuple);

void BM_ScanFilterAgg_Batch(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.batch.ns", /*batch_size=*/1024);
}
BENCHMARK(BM_ScanFilterAgg_Batch);

// Join + DISTINCT vs the DISTINCT-eliminated rewrite. SNO ⊕ PNO covers
// the PARTS key, so Theorem 1 removes the DISTINCT and with it the sort
// over the join's output.
const char* kJoinDistinctSql =
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.PNO < 40000";

void RunJoin(::benchmark::State& state, const char* series,
             bool eliminate) {
  const Database& db = GetSupplierDb(kSuppliers, kPartsPerSupplier);
  PlanPtr plan = MustBind(db, kJoinDistinctSql);
  if (eliminate) plan = MustRewrite(plan);
  PhysicalOptions physical = MakePhysical(/*batch_size=*/1024);
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram(series);
  size_t rows = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    rows += MustExecute(plan, db, physical);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_JoinDistinct_Serial(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_distinct.ns", /*eliminate=*/false);
}
BENCHMARK(BM_JoinDistinct_Serial);

void BM_JoinEliminated_Serial(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_eliminated.ns", /*eliminate=*/true);
}
BENCHMARK(BM_JoinEliminated_Serial);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
