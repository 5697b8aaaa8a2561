// Experiment X8 (§6.1, Example 10): join vs nested DL/I programs in the
// IMS gateway, both compiled from SQL by the gateway's translator.
//
//   SELECT ALL S.* FROM SUPPLIER S, PARTS P
//   WHERE S.SNO = P.SNO AND P.PNO = :PARTNO     (or P.OEM_PNO = :OEM)
//
// The Join_* series run the program translated from the bound plan (the
// paper's lines 21–29); the Nested_* series run the program translated
// after the navigational rewrite policy, whose join→subquery rewrite
// turns the join into an EXISTS probe (lines 30–35).
//
// Series:
//  - Join_KeyQualified / Nested_KeyQualified: counters `parts_calls`
//    reproduce the headline claim — the nested program issues HALF the
//    DL/I calls against PARTS (the join program's second GNP always
//    returns 'GE').
//  - Join_OemQualified / Nested_OemQualified: non-sequence-field
//    qualification; `visited` shows the nested program halting its twin
//    scan at the first match.
//
// Expected shape: parts_calls ratio ≈ 2.0 for key-qualified probes at
// every scale; wall-clock tracks segment visits.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ims/translator.h"

namespace uniqopt {
namespace bench {
namespace {

const ims::ImsDatabase& GetIms(size_t suppliers, size_t parts) {
  using Key = std::pair<size_t, size_t>;
  static std::map<Key, std::unique_ptr<ims::ImsDatabase>>* cache =
      new std::map<Key, std::unique_ptr<ims::ImsDatabase>>();
  Key key{suppliers, parts};
  auto it = cache->find(key);
  if (it != cache->end()) return *it->second;
  auto built = ims::BuildSupplierIms(GetSupplierDb(suppliers, parts));
  UNIQOPT_DCHECK_MSG(built.ok(), built.status().ToString().c_str());
  const ims::ImsDatabase& ref = **built;
  cache->emplace(key, std::move(*built));
  return ref;
}

/// Compiles Example 10's query, whose PARTS predicate `part_pred`
/// compares with one host variable, into the join program, or into the
/// nested one after the navigational rewrite policy; runs it with the
/// host variable set to `value` for every benchmark iteration.
void RunExample10(benchmark::State& state, const char* part_pred,
                  int64_t value, bool nested) {
  size_t suppliers = static_cast<size_t>(state.range(0));
  const Database& db = GetSupplierDb(suppliers, 20);
  const ims::ImsDatabase& ims_db = GetIms(suppliers, 20);
  Binder binder(&db.catalog());
  auto bound = binder.BindSql(
      std::string("SELECT ALL S.* FROM SUPPLIER S, PARTS P "
                  "WHERE S.SNO = P.SNO AND ") +
      part_pred);
  UNIQOPT_DCHECK_MSG(bound.ok(), bound.status().ToString().c_str());
  PlanPtr plan = bound->plan;
  if (nested) {
    RewriteOptions opts;
    opts.join_to_subquery = true;
    opts.subquery_to_join = false;
    opts.subquery_to_distinct_join = false;
    opts.join_elimination = false;
    plan = MustRewrite(plan, opts);
  }
  auto program = ims::TranslatePlan(ims_db, plan);
  UNIQOPT_DCHECK_MSG(program.ok(), program.status().ToString().c_str());
  std::vector<Value> params = {Value::Integer(value)};
  ims::GatewayResult result;
  for (auto _ : state) {
    result = ims::RunProgram(ims_db, *program, params);
    benchmark::DoNotOptimize(result.rows.size());
  }
  state.counters["rows"] = static_cast<double>(result.rows.size());
  state.counters["parts_calls"] =
      static_cast<double>(result.stats.calls_by_segment.at("PARTS"));
  state.counters["total_calls"] =
      static_cast<double>(result.stats.TotalCalls());
  state.counters["visited"] =
      static_cast<double>(result.stats.segments_visited);
}

/// An OEM value sitting mid-chain under a mid-keyspace supplier.
int64_t MidChainOem(const benchmark::State& state) {
  return static_cast<int64_t>((state.range(0) / 2) * 20 + 10);
}

void BM_Join_KeyQualified(benchmark::State& state) {
  RunExample10(state, "P.PNO = :PARTNO", 11, /*nested=*/false);
}
BENCHMARK(BM_Join_KeyQualified)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Nested_KeyQualified(benchmark::State& state) {
  RunExample10(state, "P.PNO = :PARTNO", 11, /*nested=*/true);
}
BENCHMARK(BM_Nested_KeyQualified)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Join_OemQualified(benchmark::State& state) {
  RunExample10(state, "P.OEM_PNO = :OEM", MidChainOem(state),
               /*nested=*/false);
}
BENCHMARK(BM_Join_OemQualified)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Nested_OemQualified(benchmark::State& state) {
  RunExample10(state, "P.OEM_PNO = :OEM", MidChainOem(state),
               /*nested=*/true);
}
BENCHMARK(BM_Nested_OemQualified)->Arg(100)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
