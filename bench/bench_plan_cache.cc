// Plan cache benchmarks: what a prepared-query cache hit is worth.
//
//  - BM_PrepareCold: the full pipeline (parse → bind → Algorithm 1 →
//    rewrite → verify) with the cache disabled — the baseline every hit
//    avoids. Runs advisor-off (no near-miss collection, no publication)
//    so the gated `bench.plan_cache.cold.ns` p50 must stay within noise
//    of the pre-advisor baseline in bench/baselines/.
//  - BM_PrepareColdAdvisorOn: the same cold pipeline with near-miss
//    collection and advisor publication enabled — ungated, reported in
//    `bench.plan_cache.cold_advisor.ns` so the advisor's prepare-path
//    overhead is visible side by side with the gated number.
//  - BM_PrepareColdTickerOn: the cold pipeline with the time-series
//    plane's background ticker running (100ms windows) and the sample
//    feed enabled — `bench.plan_cache.cold_ticker.ns`. check.sh
//    --bench-gate compares its p50 against the ticker-off cold p50
//    (BENCH_pr9.json), bounding what live monitoring costs.
//  - BM_PrepareColdEquivOn: the cold pipeline with the symbolic
//    equivalence prover certifying every applied rewrite —
//    `bench.plan_cache.cold_equiv.ns`. check.sh --bench-gate bounds
//    its p50 at <= 1.3x the prover-off cold p50 (BENCH_pr9.json):
//    certifying rewrites must stay a small tax on prepare. The gated
//    BM_PrepareCold baseline runs prover-off so the number stays
//    comparable with pre-prover baselines in bench/baselines/.
//  - BM_PrepareWarmHit: the same corpus against a pre-warmed cache —
//    each statement byte-identical to the text it was prepared from, so
//    a hit is one hash over the bytes (the cache's one key), one locked
//    lookup and a byte comparison, with no lexing. Latencies land in
//    `bench.plan_cache.warm.ns`; check.sh --bench-gate asserts warm p50
//    is ≥10× faster than cold p50 (BENCH_pr6.json).
//  - BM_PrepareMixed/<hit_pct>: K threads hammering one Optimizer at a
//    configurable hit ratio (misses are made unique via a fresh SNO
//    literal per miss, so they never start hitting).
//  - BM_PrepareBatch: PrepareBatch over the whole corpus on 8 threads.
//  - BM_PointRequest: one whole point-lookup request, a PrepareShared
//    hit plus Execute of a host-variable key lookup, on 2,000 suppliers
//    with a rotating key — `bench.plan_cache.point_request.ns`. Ungated.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/advisor.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "uniqopt/optimizer.h"
#include "workload/query_corpus.h"

namespace uniqopt {
namespace bench {
namespace {

/// The Optimizer mutates nothing, but takes a non-const Database*; the
/// bench keeps one mutable supplier instance alive for all runs.
Database* MutableSupplierDb() {
  static Database* db = [] {
    auto* d = new Database();
    SupplierSchemaOptions schema;
    schema.max_sno = 101;
    Status st = CreateSupplierSchema(d, schema);
    UNIQOPT_DCHECK_MSG(st.ok(), st.ToString().c_str());
    SupplierDataOptions data;
    data.num_suppliers = 100;
    data.parts_per_supplier = 10;
    data.num_agents = 50;
    st = PopulateSupplierDatabase(d, data);
    UNIQOPT_DCHECK_MSG(st.ok(), st.ToString().c_str());
    return d;
  }();
  return db;
}

std::vector<std::string> CorpusSql() {
  std::vector<std::string> out;
  for (const CorpusQuery& q : DistinctQueryCorpus()) out.push_back(q.sql);
  return out;
}

void BM_PrepareCold(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  cache::PlanCacheOptions no_cache;
  no_cache.enabled = false;
  RewriteOptions advisor_off;
  advisor_off.analysis.collect_near_misses = false;
  Optimizer optimizer(db, advisor_off, /*use_cost_model=*/false, no_cache);
  optimizer.set_advise(false);
  optimizer.set_check_equiv(false);
  std::vector<std::string> corpus = CorpusSql();
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("bench.plan_cache.cold.ns");
  size_t i = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer.PrepareShared(corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareCold);

void BM_PrepareColdEquivOn(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  cache::PlanCacheOptions no_cache;
  no_cache.enabled = false;
  RewriteOptions advisor_off;
  advisor_off.analysis.collect_near_misses = false;
  Optimizer optimizer(db, advisor_off, /*use_cost_model=*/false, no_cache);
  optimizer.set_advise(false);
  optimizer.set_check_equiv(true);
  std::vector<std::string> corpus = CorpusSql();
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "bench.plan_cache.cold_equiv.ns");
  size_t i = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer.PrepareShared(corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareColdEquivOn);

void BM_PrepareColdAdvisorOn(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  cache::PlanCacheOptions no_cache;
  no_cache.enabled = false;
  Optimizer optimizer(db, {}, /*use_cost_model=*/false, no_cache);
  optimizer.set_check_equiv(false);
  std::vector<std::string> corpus = CorpusSql();
  obs::AdvisorStore::Global().set_enabled(true);
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "bench.plan_cache.cold_advisor.ns");
  size_t i = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer.PrepareShared(corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations());
  obs::AdvisorStore::Global().Clear();
}
BENCHMARK(BM_PrepareColdAdvisorOn);

void BM_PrepareColdTickerOn(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  cache::PlanCacheOptions no_cache;
  no_cache.enabled = false;
  RewriteOptions advisor_off;
  advisor_off.analysis.collect_near_misses = false;
  Optimizer optimizer(db, advisor_off, /*use_cost_model=*/false, no_cache);
  optimizer.set_advise(false);
  optimizer.set_check_equiv(false);
  std::vector<std::string> corpus = CorpusSql();
  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  Status ticker = plane.StartTicker(100);
  UNIQOPT_DCHECK_MSG(
      ticker.ok() || ticker.code() == StatusCode::kAlreadyExists,
      ticker.ToString().c_str());
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "bench.plan_cache.cold_ticker.ns");
  size_t i = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer.PrepareShared(corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations());
  plane.StopTicker();
  plane.set_enabled(false);
  plane.Reset();
}
BENCHMARK(BM_PrepareColdTickerOn);

void BM_PrepareWarmHit(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  static Optimizer* optimizer = new Optimizer(MutableSupplierDb());
  (void)db;
  std::vector<std::string> corpus = CorpusSql();
  for (const std::string& sql : corpus) {  // pre-warm
    auto prepared = optimizer->PrepareShared(sql);
    UNIQOPT_DCHECK_MSG(prepared.ok(), prepared.status().ToString().c_str());
  }
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("bench.plan_cache.warm.ns");
  size_t i = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer->PrepareShared(corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareWarmHit);

void BM_PrepareMixed(benchmark::State& state) {
  static Optimizer* optimizer = new Optimizer(MutableSupplierDb());
  static std::atomic<uint64_t> unique_literal{1000};
  const uint64_t hit_pct = static_cast<uint64_t>(state.range(0));
  std::vector<std::string> corpus = CorpusSql();
  if (state.thread_index() == 0) {
    for (const std::string& sql : corpus) {
      auto prepared = optimizer->PrepareShared(sql);
      UNIQOPT_DCHECK_MSG(prepared.ok(),
                         prepared.status().ToString().c_str());
    }
  }
  uint64_t n = 0;
  for (auto _ : state) {
    ++n;
    if (n % 100 < hit_pct) {
      auto prepared =
          optimizer->PrepareShared(corpus[n % corpus.size()]);
      benchmark::DoNotOptimize(prepared);
    } else {
      // A literal nobody used before: guaranteed miss, full pipeline +
      // insert (and eventually eviction) under concurrency.
      std::string sql =
          "SELECT SNAME FROM SUPPLIER WHERE SNO = " +
          std::to_string(unique_literal.fetch_add(1));
      auto prepared = optimizer->PrepareShared(sql);
      benchmark::DoNotOptimize(prepared);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareMixed)->Arg(90)->Arg(50)->Threads(8);

void BM_PrepareBatch(benchmark::State& state) {
  Database* db = MutableSupplierDb();
  Optimizer optimizer(db);
  std::vector<std::string> corpus = CorpusSql();
  for (auto _ : state) {
    auto prepared = optimizer.PrepareBatch(corpus, 8);
    UNIQOPT_DCHECK_MSG(prepared.ok(), prepared.status().ToString().c_str());
    benchmark::DoNotOptimize(prepared);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_PrepareBatch);

/// Supplier data at the scale of the request benchmark's point lookups;
/// the bench reads only SUPPLIER.
Database* PointLookupDb() {
  static Database* db = [] {
    auto* d = new Database();
    SupplierSchemaOptions schema;
    schema.max_sno = 2000;
    Status st = CreateSupplierSchema(d, schema);
    UNIQOPT_DCHECK_MSG(st.ok(), st.ToString().c_str());
    SupplierDataOptions data;
    data.num_suppliers = 2000;
    data.parts_per_supplier = 1;
    data.num_agents = 10;
    st = PopulateSupplierDatabase(d, data);
    UNIQOPT_DCHECK_MSG(st.ok(), st.ToString().c_str());
    return d;
  }();
  return db;
}

void BM_PointRequest(benchmark::State& state) {
  static Optimizer* optimizer = new Optimizer(PointLookupDb());
  const std::string sql =
      "SELECT SNAME, SCITY, BUDGET FROM SUPPLIER WHERE SNO = :S";
  auto warm = optimizer->PrepareShared(sql);
  UNIQOPT_DCHECK_MSG(warm.ok(), warm.status().ToString().c_str());
  auto one = optimizer->Execute(**warm, {{"S", Value::Integer(7)}});
  UNIQOPT_DCHECK_MSG(one.ok() && one->size() == 1, "point lookup failed");
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "bench.plan_cache.point_request.ns");
  int64_t key = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    auto prepared = optimizer->PrepareShared(sql);
    auto rows = optimizer->Execute(
        **prepared, {{"S", Value::Integer(key++ % 2000 + 1)}});
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointRequest);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
