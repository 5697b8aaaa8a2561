// Differential oracle for the batch execution path: every plan in the
// workload (corpus + generated queries) must produce the identical
// multiset of rows under
//   tuple-at-a-time  vs  batch 1024  vs  batch 7.
// The odd batch size puts batch boundaries inside join, filter and
// semi-join streams. Plus the plan-cache physical-options salt and a
// TSan hammer mixing concurrent costed PrepareBatch with executes.
// (The suites keep their `Parallel*` names as stable test IDs.)

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "exec/planner.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/query_corpus.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

/// Generic bindings for a bound query's host variables: a fixed value
/// per type, so parameterized corpus queries execute without per-query
/// fixtures.
std::vector<Value> DefaultParams(const std::vector<HostVariable>& vars) {
  std::vector<Value> params;
  params.reserve(vars.size());
  for (const HostVariable& v : vars) {
    switch (v.type) {
      case TypeId::kInteger:
        params.push_back(Value::Integer(1));
        break;
      case TypeId::kString:
        params.push_back(Value::String("S1"));
        break;
      case TypeId::kDouble:
        params.push_back(Value::Double(1.0));
        break;
      default:
        params.push_back(Value::Null(v.type));
        break;
    }
  }
  return params;
}

Result<std::vector<Row>> ExecBound(const BoundQuery& bound,
                                   const Database& db,
                                   const PhysicalOptions& physical,
                                   ExecStats* stats = nullptr) {
  ExecContext ctx;
  ctx.params = DefaultParams(bound.host_vars);
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           ExecutePlan(bound.plan, db, &ctx, physical));
  if (stats != nullptr) *stats = ctx.stats;
  return rows;
}

/// Tuple-at-a-time (the reference), the default batch size, and an odd
/// batch size that splits every stream mid-way.
std::vector<PhysicalOptions> ExecutionModes() {
  std::vector<PhysicalOptions> modes(3);
  modes[0].batch_size = 0;
  modes[2].batch_size = 7;
  return modes;
}

class ParallelSweepTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 30;
    data.parts_per_supplier = 5;
    data.num_agents = 15;
    data.null_fraction = 0.1;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
  }

  std::vector<BoundQuery> Workload() {
    std::vector<BoundQuery> bound_queries;
    Binder binder(&db_.catalog());
    for (const CorpusQuery& q : DistinctQueryCorpus()) {
      auto bound = binder.BindSql(q.sql);
      EXPECT_TRUE(bound.ok()) << q.id;
      if (bound.ok()) bound_queries.push_back(std::move(*bound));
    }
    RandomQueryOptions qopts;
    qopts.seed = GetParam();
    qopts.always_distinct = false;
    qopts.group_by_probability = 0.2;
    RandomQueryGenerator gen(qopts);
    for (int i = 0; i < 80; ++i) {
      auto bound = binder.BindSql(gen.NextQuery());
      if (bound.ok()) bound_queries.push_back(std::move(*bound));
    }
    return bound_queries;
  }

  Database db_;
};

TEST_P(ParallelSweepTest, SerialBatchAndParallelAgree) {
  const std::vector<PhysicalOptions> modes = ExecutionModes();
  size_t plans = 0;
  for (const BoundQuery& bound : Workload()) {
    ASSERT_OK_AND_ASSIGN(std::vector<Row> reference,
                         ExecBound(bound, db_, modes[0]));
    for (size_t m = 1; m < modes.size(); ++m) {
      ExecStats stats;
      ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                           ExecBound(bound, db_, modes[m], &stats));
      EXPECT_TRUE(MultisetEquals(reference, rows))
          << "batch=" << modes[m].batch_size << "\n"
          << bound.plan->ToString() << "tuple rows:\n"
          << RowsToString(reference) << "batch rows:\n"
          << RowsToString(rows);
      EXPECT_EQ(stats.rows_output, rows.size()) << bound.plan->ToString();
    }
    ++plans;
  }
  // Three seed instantiations of >= 70 plans each give the >= 200-plan
  // differential floor.
  EXPECT_GE(plans, 70u);
}

TEST_P(ParallelSweepTest, RewrittenPlansAgreeUnderParallelExecution) {
  const std::vector<PhysicalOptions> modes = ExecutionModes();
  for (const BoundQuery& bound : Workload()) {
    ASSERT_OK_AND_ASSIGN(RewriteResult rewritten, RewritePlan(bound.plan));
    ASSERT_OK_AND_ASSIGN(std::vector<Row> reference,
                         ExecBound(bound, db_, modes[0]));
    BoundQuery rebound = bound;
    rebound.plan = rewritten.plan;
    for (const PhysicalOptions& physical : modes) {
      ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                           ExecBound(rebound, db_, physical));
      EXPECT_TRUE(MultisetEquals(reference, rows))
          << "batch=" << physical.batch_size << "\n"
          << bound.plan->ToString() << "rewritten:\n"
          << rewritten.plan->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweepTest,
                         ::testing::Values(11u, 22u, 33u));

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(MakeTestSupplierDatabase(&db_)); }

  Database db_;
};

// TSan hammer: concurrent PrepareBatch (cost model on, so the shared
// CostEstimator's NDV cache is hit from many threads) interleaved with
// executes on a second optimizer.
TEST_F(ParallelExecTest, ConcurrentPrepareAndParallelExecuteHammer) {
  Optimizer costed(&db_, RewriteOptions{}, /*use_cost_model=*/true);
  costed.set_verify_plans(false);
  Optimizer plain(&db_);
  plain.set_verify_plans(false);
  std::vector<std::string> sqls;
  for (const CorpusQuery& q : DistinctQueryCorpus()) sqls.push_back(q.sql);

  std::atomic<bool> failed{false};
  auto prepare_worker = [&] {
    for (int round = 0; round < 3 && !failed.load(); ++round) {
      auto batch = costed.PrepareBatch(sqls, 4);
      if (!batch.ok()) failed.store(true);
    }
  };
  auto execute_worker = [&] {
    for (int round = 0; round < 6 && !failed.load(); ++round) {
      auto prepared = plain.Prepare(
          "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
          "WHERE S.SNO = P.SNO");
      if (!prepared.ok() || !plain.Execute(*prepared).ok()) {
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.emplace_back(prepare_worker);
  pool.emplace_back(prepare_worker);
  pool.emplace_back(execute_worker);
  execute_worker();
  for (std::thread& t : pool) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace uniqopt
