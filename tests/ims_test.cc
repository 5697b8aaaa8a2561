#include <gtest/gtest.h>

#include "ims/translator.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

using ims::BuildSupplierIms;
using ims::DliSession;
using ims::DliStatus;
using ims::GatewayResult;
using ims::ImsDatabase;
using ims::Ssa;

class ImsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(MakeTestSupplierDatabase(&db_));
    auto ims = BuildSupplierIms(db_);
    ASSERT_TRUE(ims.ok()) << ims.status().ToString();
    ims_ = std::move(*ims);
  }

  /// Example 10's query with PARTS predicate `part_pred`, whose one host
  /// variable is set to `value`, compiled by the gateway as bound (the
  /// join program, lines 21–29) or after the navigational rewrite
  /// policy (the nested program, lines 30–35), and run.
  GatewayResult RunExample10(const std::string& part_pred, int64_t value,
                             bool nested) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(
        "SELECT ALL S.* FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND " +
        part_pred);
    if (!bound.ok()) {
      ADD_FAILURE() << bound.status().ToString();
      return {};
    }
    PlanPtr plan = bound->plan;
    if (nested) {
      RewriteOptions opts;
      opts.join_to_subquery = true;
      opts.subquery_to_join = false;
      opts.subquery_to_distinct_join = false;
      opts.join_elimination = false;
      auto rewritten = RewritePlan(plan, opts);
      if (!rewritten.ok()) {
        ADD_FAILURE() << rewritten.status().ToString();
        return {};
      }
      EXPECT_TRUE(rewritten->Applied(RewriteRuleId::kJoinToSubquery));
      plan = rewritten->plan;
    }
    auto program = ims::TranslatePlan(*ims_, plan);
    if (!program.ok()) {
      ADD_FAILURE() << program.status().ToString();
      return {};
    }
    EXPECT_EQ(program->steps.size(), 1u);
    EXPECT_EQ(program->steps.at(0).exists_only, nested);
    return ims::RunProgram(*ims_, *program, {Value::Integer(value)});
  }

  Database db_;
  std::unique_ptr<ImsDatabase> ims_;
};

TEST_F(ImsTest, HierarchyLoadsAllSegments) {
  // 100 suppliers + 1000 parts + 50 agents.
  EXPECT_EQ(ims_->num_segments(), 1150u);
}

TEST_F(ImsTest, GuByKeyUsesIndex) {
  DliSession dli(ims_.get());
  DliStatus st = dli.GU(Ssa::Equal("SUPPLIER", "SNO", Value::Integer(42)));
  EXPECT_EQ(st, DliStatus::kOk);
  EXPECT_EQ(dli.current()->fields[0].AsInteger(), 42);
  // Index lookup examines exactly one segment.
  EXPECT_EQ(dli.stats().segments_visited, 1u);
}

TEST_F(ImsTest, GuNotFound) {
  DliSession dli(ims_.get());
  EXPECT_EQ(dli.GU(Ssa::Equal("SUPPLIER", "SNO", Value::Integer(9999))),
            DliStatus::kNotFound);
}

TEST_F(ImsTest, GnWalksRootsInKeyOrder) {
  DliSession dli(ims_.get());
  ASSERT_EQ(dli.GU(Ssa::Unqualified("SUPPLIER")), DliStatus::kOk);
  int64_t prev = dli.current()->fields[0].AsInteger();
  size_t count = 1;
  while (dli.GN(Ssa::Unqualified("SUPPLIER")) == DliStatus::kOk) {
    int64_t sno = dli.current()->fields[0].AsInteger();
    EXPECT_GT(sno, prev);
    prev = sno;
    ++count;
  }
  EXPECT_EQ(count, 100u);
}

TEST_F(ImsTest, GnpIteratesChildrenOfCurrentParentOnly) {
  DliSession dli(ims_.get());
  ASSERT_EQ(dli.GU(Ssa::Equal("SUPPLIER", "SNO", Value::Integer(5))),
            DliStatus::kOk);
  size_t parts = 0;
  while (dli.GNP(Ssa::Unqualified("PARTS")) == DliStatus::kOk) {
    EXPECT_EQ(dli.current()->parent->fields[0].AsInteger(), 5);
    ++parts;
  }
  EXPECT_EQ(parts, 10u);  // parts_per_supplier
}

TEST_F(ImsTest, GnpKeyQualificationHaltsEarly) {
  DliSession dli(ims_.get());
  ASSERT_EQ(dli.GU(Ssa::Equal("SUPPLIER", "SNO", Value::Integer(5))),
            DliStatus::kOk);
  dli.ResetStats();
  // PNO = 3: twins are key-sequenced 1..10, so the scan examines 3
  // segments and stops.
  ASSERT_EQ(dli.GNP(Ssa::Equal("PARTS", "PNO", Value::Integer(3))),
            DliStatus::kOk);
  EXPECT_EQ(dli.stats().segments_visited, 3u);
  // The follow-up call sees key 4 > 3 and fails after one visit.
  ASSERT_EQ(dli.GNP(Ssa::Equal("PARTS", "PNO", Value::Integer(3))),
            DliStatus::kNotFound);
  EXPECT_EQ(dli.stats().segments_visited, 4u);
}

TEST_F(ImsTest, Example10BothStrategiesProduceSameSuppliers) {
  GatewayResult join = RunExample10("P.PNO = :PARTNO", 4, /*nested=*/false);
  GatewayResult nested = RunExample10("P.PNO = :PARTNO", 4, /*nested=*/true);
  EXPECT_EQ(join.rows.size(), 100u);  // every supplier has part 4
  EXPECT_TRUE(MultisetEquals(join.rows, nested.rows));
}

TEST_F(ImsTest, Example10NestedHalvesPartsCalls) {
  // The paper's claim: the nested strategy halves the number of DL/I
  // calls against the PARTS segment, because the join strategy's second
  // GNP per supplier always returns 'GE'.
  GatewayResult join = RunExample10("P.PNO = :PARTNO", 4, /*nested=*/false);
  GatewayResult nested = RunExample10("P.PNO = :PARTNO", 4, /*nested=*/true);
  size_t join_parts_calls = join.stats.calls_by_segment.at("PARTS");
  size_t nested_parts_calls = nested.stats.calls_by_segment.at("PARTS");
  EXPECT_EQ(join_parts_calls, 200u);    // 2 per supplier
  EXPECT_EQ(nested_parts_calls, 100u);  // 1 per supplier
}

TEST_F(ImsTest, OemVariantNestedHaltsEarly) {
  // OEM_PNO is not the sequence field: the join strategy's second GNP
  // scans all remaining twins; the nested strategy stops at the match.
  // Pick an OEM that exists (generator assigns 1..1000 sequentially).
  GatewayResult join = RunExample10("P.OEM_PNO = :OEM", 37,
                                    /*nested=*/false);
  GatewayResult nested = RunExample10("P.OEM_PNO = :OEM", 37,
                                      /*nested=*/true);
  ASSERT_EQ(join.rows.size(), 1u);  // OEM_PNO is a candidate key
  EXPECT_TRUE(MultisetEquals(join.rows, nested.rows));
  EXPECT_GT(join.stats.segments_visited, nested.stats.segments_visited);
}

TEST_F(ImsTest, InsertValidation) {
  ims::ImsDatabaseDef def;
  ims::SegmentTypeDef root;
  root.name = "R";
  root.fields = {{"K", TypeId::kInteger}};
  root.key_field = 0;
  ASSERT_OK(def.AddSegmentType(root));
  ims::SegmentTypeDef child;
  child.name = "C";
  child.fields = {{"K", TypeId::kInteger}};
  child.key_field = 0;
  child.parent = "R";
  ASSERT_OK(def.AddSegmentType(child));
  // A second root type is rejected.
  ims::SegmentTypeDef bad_root;
  bad_root.name = "R2";
  bad_root.fields = {{"K", TypeId::kInteger}};
  bad_root.key_field = 0;
  EXPECT_FALSE(def.AddSegmentType(bad_root).ok());

  ImsDatabase db(std::move(def));
  auto r1 = db.InsertRoot(Row({Value::Integer(1)}));
  ASSERT_TRUE(r1.ok());
  // Duplicate root key rejected (key-sequenced organization).
  EXPECT_FALSE(db.InsertRoot(Row({Value::Integer(1)})).ok());
  // Child under the right parent, wrong arity rejected.
  EXPECT_FALSE(
      db.InsertChild(*r1, "C", Row({Value::Integer(1), Value::Integer(2)}))
          .ok());
  ASSERT_TRUE(db.InsertChild(*r1, "C", Row({Value::Integer(2)})).ok());
}

TEST_F(ImsTest, TwinChainStaysKeyOrderedUnderRandomInserts) {
  ims::ImsDatabaseDef def;
  ims::SegmentTypeDef root;
  root.name = "R";
  root.fields = {{"K", TypeId::kInteger}};
  root.key_field = 0;
  ASSERT_OK(def.AddSegmentType(root));
  ims::SegmentTypeDef child;
  child.name = "C";
  child.fields = {{"K", TypeId::kInteger}};
  child.key_field = 0;
  child.parent = "R";
  ASSERT_OK(def.AddSegmentType(child));
  ImsDatabase db(std::move(def));
  auto r = db.InsertRoot(Row({Value::Integer(1)}));
  ASSERT_TRUE(r.ok());
  for (int64_t k : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE(db.InsertChild(*r, "C", Row({Value::Integer(k)})).ok());
  }
  DliSession dli(&db);
  ASSERT_EQ(dli.GU(Ssa::Equal("R", "K", Value::Integer(1))), DliStatus::kOk);
  std::vector<int64_t> keys;
  while (dli.GNP(Ssa::Unqualified("C")) == DliStatus::kOk) {
    keys.push_back(dli.current()->fields[0].AsInteger());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

}  // namespace
}  // namespace uniqopt
