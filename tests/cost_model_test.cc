// Tests for the cost model and cost-based strategy choice — the piece
// the paper leaves to "the optimizer's cost model" (§5).

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "exec/cost_model.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 200;
    data.parts_per_supplier = 10;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
    estimator_ = std::make_unique<CostEstimator>(&db_);
  }

  PlanPtr Bind(const std::string& sql) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound->plan;
  }

  Database db_;
  std::unique_ptr<CostEstimator> estimator_;
};

TEST_F(CostModelTest, BaseTableCardinalities) {
  EXPECT_DOUBLE_EQ(estimator_->EstimateRows(Bind("SELECT * FROM SUPPLIER")),
                   200.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateRows(Bind("SELECT * FROM PARTS")),
                   2000.0);
}

TEST_F(CostModelTest, DistinctCountsFromLiveData) {
  // SNO is the key: 200 distinct. PARTS.PNO has 10 distinct values.
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("SUPPLIER", 0), 200.0);
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", 1), 10.0);
}

TEST_F(CostModelTest, KeyEqualitySelectsOneRow) {
  double rows = estimator_->EstimateRows(
      Bind("SELECT * FROM SUPPLIER WHERE SNO = 7"));
  EXPECT_NEAR(rows, 1.0, 0.01);
}

TEST_F(CostModelTest, JoinCardinalityTracksKeys) {
  // S ⋈ P on SNO: |P| rows expected (each part one supplier).
  double rows = estimator_->EstimateRows(
      Bind("SELECT * FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"));
  EXPECT_NEAR(rows, 2000.0, 100.0);
}

TEST_F(CostModelTest, HashJoinCheaperThanNestedLoop) {
  PlanPtr plan =
      Bind("SELECT * FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
  PhysicalOptions hash;
  hash.join = PhysicalOptions::JoinStrategy::kHash;
  PhysicalOptions nl;
  nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
  EXPECT_LT(estimator_->Estimate(plan, hash).cost,
            estimator_->Estimate(plan, nl).cost);
}

TEST_F(CostModelTest, EmptySelectionIsFree) {
  PlanPtr plan = Bind("SELECT * FROM SUPPLIER WHERE SNO = 600");
  auto rewritten = RewritePlan(plan);
  ASSERT_TRUE(rewritten.ok());
  PlanEstimate e = estimator_->Estimate(rewritten->plan, {});
  EXPECT_LT(e.cost, 10.0);
}

TEST_F(CostModelTest, DistinctRemovalLowersCost) {
  PlanPtr with = Bind(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO");
  auto rewritten = RewritePlan(with);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_TRUE(rewritten->Applied(RewriteRuleId::kRemoveRedundantDistinct));
  PhysicalOptions sort;
  sort.distinct = PhysicalOptions::DistinctStrategy::kSort;
  EXPECT_LT(estimator_->Estimate(rewritten->plan, sort).cost,
            estimator_->Estimate(with, sort).cost);
}

TEST_F(CostModelTest, ChooserPrefersRewrittenExistsAtScale) {
  PlanPtr original = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)");
  auto rewritten = RewritePlan(original);
  ASSERT_TRUE(rewritten.ok());
  std::vector<PlanAlternative> alts =
      StandardAlternatives(original, rewritten->plan);
  size_t best = ChooseBestAlternative(*estimator_, &alts);
  // The winner must not be a nested-loop plan.
  EXPECT_EQ(alts[best].label.find("nested-loop"), std::string::npos)
      << alts[best].label;
}

TEST_F(CostModelTest, OptimizerFacadeCostBased) {
  Optimizer optimizer(&db_, RewriteOptions{}, /*use_cost_model=*/true);
  auto prepared = optimizer.Prepare(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->cost_based);
  EXPECT_FALSE(prepared->chosen_label.empty());
  EXPECT_GT(prepared->chosen_estimate.cost, 0.0);
  EXPECT_NE(prepared->Explain().find("cost-based choice"),
            std::string::npos);
  // Executing uses the pinned strategy and produces correct results.
  auto rows = optimizer.Execute(*prepared);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2000u);
}

TEST_F(CostModelTest, EstimatesAreOrderOfMagnitudeSane) {
  // Compare estimated vs actual cardinalities across several queries;
  // heuristics should land within ~4x.
  const char* queries[] = {
      "SELECT * FROM SUPPLIER WHERE SCITY = 'Toronto'",
      "SELECT DISTINCT SNAME FROM SUPPLIER",
      "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
      "SELECT SNO FROM PARTS INTERSECT SELECT SNO FROM SUPPLIER",
  };
  for (const char* sql : queries) {
    PlanPtr plan = Bind(sql);
    double estimated = estimator_->EstimateRows(plan);
    ExecContext ctx;
    auto rows = ExecutePlan(plan, db_, &ctx);
    ASSERT_TRUE(rows.ok()) << sql;
    double actual = std::max<double>(1.0, static_cast<double>(rows->size()));
    EXPECT_LT(estimated / actual, 4.0) << sql;
    EXPECT_GT(estimated / actual, 0.25) << sql;
  }
}

TEST_F(CostModelTest, ConcurrentDistinctCountIsRaceFree) {
  // One estimator shared by many threads, all filling the NDV cache —
  // the exact situation concurrent PrepareBatch puts the cost phase in.
  // Run under TSan (scripts/check.sh --tsan) this is the regression
  // test for the formerly unguarded mutable ndv_cache_.
  std::vector<std::thread> pool;
  std::atomic<bool> mismatch{false};
  auto worker = [&] {
    for (int round = 0; round < 20; ++round) {
      if (estimator_->DistinctCount("SUPPLIER", 0) != 200.0 ||
          estimator_->DistinctCount("PARTS", 1) != 10.0 ||
          estimator_->DistinctCount("PARTS", 0) <= 0.0) {
        mismatch.store(true);
      }
    }
  };
  for (int t = 0; t < 7; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace uniqopt
