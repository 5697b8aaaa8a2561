// Direct operator-level tests for the volcano executor: edge cases that
// SQL-level tests reach only indirectly (NULL join keys, residual
// predicates, re-Open behaviour, empty inputs), and the hash-join core
// (JoinHashTable) in both execution modes and over every kind of build
// input: owned batches, pinned table-scan slices, and unpinned slices
// that their producer frees at Close.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "test_util.h"

namespace uniqopt {
namespace {

Schema OneIntColumn(const char* name) {
  return Schema({{"T", name, TypeId::kInteger, true}});
}

/// Materialized-rows source for operator tests.
class VectorSourceOp final : public Operator {
 public:
  VectorSourceOp(Schema schema, std::vector<Row> rows)
      : Operator(std::move(schema)), rows_(std::move(rows)) {}

  Status Open(ExecContext*) override {
    pos_ = 0;
    ++opens_;
    return Status::OK();
  }
  Result<bool> Next(ExecContext*, Row* row) override {
    if (pos_ >= rows_.size()) return false;
    *row = rows_[pos_++];
    return true;
  }
  void Close() override {}
  std::string name() const override { return "VectorSource"; }

  int opens() const { return opens_; }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
  int opens_ = 0;
};

OperatorPtr IntSource(const char* name, std::vector<int64_t> values,
                      std::vector<size_t> null_positions = {}) {
  std::vector<Row> rows;
  for (size_t i = 0; i < values.size(); ++i) {
    bool is_null = false;
    for (size_t p : null_positions) is_null = is_null || p == i;
    std::vector<Value> cells;
    cells.push_back(is_null ? Value::Null(TypeId::kInteger)
                            : Value::Integer(values[i]));
    rows.push_back(Row(std::move(cells)));
  }
  return OperatorPtr(new VectorSourceOp(OneIntColumn(name),
                                        std::move(rows)));
}

TEST(OperatorsTest, FilterRejectsUnknown) {
  // x > 1 over {0, 2, NULL}: only 2 passes (UNKNOWN rejects).
  OperatorPtr src = IntSource("X", {0, 2, 0}, {2});
  ExprPtr pred = Expr::Compare(CompareOp::kGt,
                               Expr::ColumnRef(0, "X", TypeId::kInteger),
                               Expr::Literal(Value::Integer(1)));
  FilterOp filter(std::move(src), pred);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&filter, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInteger(), 2);
}

TEST(OperatorsTest, HashJoinSkipsNullKeys) {
  // NULL keys never match under 3VL `=`.
  OperatorPtr left = IntSource("L", {1, 2, 0}, {2});
  OperatorPtr right = IntSource("R", {2, 3, 0}, {2});
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, nullptr);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  ASSERT_EQ(rows.size(), 1u);  // only 2 = 2
  EXPECT_EQ(rows[0][0].AsInteger(), 2);
  EXPECT_EQ(rows[0][1].AsInteger(), 2);
}

TEST(OperatorsTest, HashJoinResidualPredicate) {
  OperatorPtr left = IntSource("L", {1, 1, 2});
  OperatorPtr right = IntSource("R", {1, 2});
  // Join on equality plus residual L < 2 ⇒ rows with L = 1 only.
  ExprPtr residual = Expr::Compare(CompareOp::kLt,
                                   Expr::ColumnRef(0, "L", TypeId::kInteger),
                                   Expr::Literal(Value::Integer(2)));
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, residual);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // two L=1 rows match R=1
}

TEST(OperatorsTest, HashJoinDuplicateBuildKeys) {
  OperatorPtr left = IntSource("L", {7});
  OperatorPtr right = IntSource("R", {7, 7, 7});
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, nullptr);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  EXPECT_EQ(rows.size(), 3u);
}

TEST(OperatorsTest, SemiJoinEmitsOuterOncePerMatch) {
  OperatorPtr outer = IntSource("L", {1, 2, 3});
  OperatorPtr inner = IntSource("R", {2, 2, 3, 3});
  HashSemiJoinOp semi(std::move(outer), std::move(inner), {0}, {0}, nullptr,
                      /*negated=*/false);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&semi, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // 2 and 3 once each, 1 dropped
}

TEST(OperatorsTest, AntiJoinKeepsNullKeyedOuter) {
  // NULL outer key never matches ⇒ NOT EXISTS keeps the row.
  OperatorPtr outer = IntSource("L", {1, 0}, {1});
  OperatorPtr inner = IntSource("R", {1});
  HashSemiJoinOp anti(std::move(outer), std::move(inner), {0}, {0}, nullptr,
                      /*negated=*/true);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&anti, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST(OperatorsTest, NestedLoopSemiJoinMatchesHashVariant) {
  auto make_pair = [] {
    return std::make_pair(IntSource("L", {1, 2, 3, 0}, {3}),
                          IntSource("R", {2, 3}));
  };
  ExprPtr corr = Expr::Compare(CompareOp::kEq,
                               Expr::ColumnRef(0, "L", TypeId::kInteger),
                               Expr::ColumnRef(1, "R", TypeId::kInteger));
  auto [o1, i1] = make_pair();
  NestedLoopSemiJoinOp nl(std::move(o1), std::move(i1), corr, false);
  auto [o2, i2] = make_pair();
  HashSemiJoinOp hash(std::move(o2), std::move(i2), {0}, {0}, nullptr,
                      false);
  ExecContext c1;
  ExecContext c2;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, ExecuteToVector(&nl, &c1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, ExecuteToVector(&hash, &c2));
  EXPECT_TRUE(MultisetEquals(a, b));
  EXPECT_EQ(a.size(), 2u);
}

TEST(OperatorsTest, SortDistinctStableAcrossReopen) {
  SortDistinctOp distinct(IntSource("X", {3, 1, 3, 2, 1}));
  for (int round = 0; round < 2; ++round) {
    ExecContext ctx;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         ExecuteToVector(&distinct, &ctx));
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].AsInteger(), 1);
    EXPECT_EQ(rows[2][0].AsInteger(), 3);
  }
}

TEST(OperatorsTest, HashDistinctCollapsesNulls) {
  HashDistinctOp distinct(IntSource("X", {0, 0, 1}, {0, 1}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&distinct, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // NULL collapses with NULL
}

TEST(OperatorsTest, ProductOfEmptyInput) {
  NestedLoopProductOp product(IntSource("L", {}), IntSource("R", {1, 2}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&product, &ctx));
  EXPECT_TRUE(rows.empty());
  NestedLoopProductOp product2(IntSource("L", {1}), IntSource("R", {}));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows2,
                       ExecuteToVector(&product2, &ctx));
  EXPECT_TRUE(rows2.empty());
}

TEST(OperatorsTest, SetOpCountsAreExact) {
  // L = {1×3, 2×1}, R = {1×1, 2×2}: ∩All = {1×1, 2×1}, −All = {1×2}.
  auto L = [] { return IntSource("X", {1, 1, 1, 2}); };
  auto R = [] { return IntSource("X", {1, 2, 2}); };
  ExecContext ctx;
  SetOpOp i_all(SetOpAlgebra::kIntersect, DuplicateMode::kAll, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, ExecuteToVector(&i_all, &ctx));
  EXPECT_EQ(a.size(), 2u);
  SetOpOp e_all(SetOpAlgebra::kExcept, DuplicateMode::kAll, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, ExecuteToVector(&e_all, &ctx));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0][0].AsInteger(), 1);
  SetOpOp i_dist(SetOpAlgebra::kIntersect, DuplicateMode::kDist, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> c, ExecuteToVector(&i_dist, &ctx));
  EXPECT_EQ(c.size(), 2u);
  SetOpOp e_dist(SetOpAlgebra::kExcept, DuplicateMode::kDist, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> d, ExecuteToVector(&e_dist, &ctx));
  EXPECT_TRUE(d.empty());
}

TEST(OperatorsTest, SortMergeIntersectHandlesNulls) {
  SortMergeIntersectOp intersect(IntSource("X", {1, 0}, {1}),
                                 IntSource("X", {0, 2}, {0}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&intersect, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());  // NULL =! NULL in set operations
}

TEST(OperatorsTest, EmptySourceProducesNothing) {
  EmptySourceOp empty(OneIntColumn("X"));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&empty, &ctx));
  EXPECT_TRUE(rows.empty());
}

TEST(OperatorsTest, ProjectReordersColumns) {
  std::vector<Row> rows = {Row({Value::Integer(1), Value::String("a")})};
  Schema schema({{"T", "X", TypeId::kInteger, false},
                 {"T", "Y", TypeId::kString, false}});
  ProjectOp project(
      OperatorPtr(new VectorSourceOp(schema, std::move(rows))), {1, 0, 1});
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> out, ExecuteToVector(&project, &ctx));
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 3u);
  EXPECT_EQ(out[0][0].AsString(), "a");
  EXPECT_EQ(out[0][1].AsInteger(), 1);
  EXPECT_EQ(out[0][2].AsString(), "a");
}

// ------------------------------------------------------------ join core

Row MakeRow(std::vector<Value> values) { return Row(std::move(values)); }

Value Int(int64_t v) { return Value::Integer(v); }
Value Dbl(double v) { return Value::Double(v); }
Value NullInt() { return Value::Null(TypeId::kInteger); }

/// A materialized source whose columns C0, C1, ... have `types`.
OperatorPtr Source(std::vector<TypeId> types, std::vector<Row> rows) {
  std::vector<Column> columns;
  for (size_t i = 0; i < types.size(); ++i) {
    columns.push_back({"T", "C" + std::to_string(i), types[i], true});
  }
  return OperatorPtr(
      new VectorSourceOp(Schema(std::move(columns)), std::move(rows)));
}

/// Drains a fresh tree from `make` tuple-at-a-time and again in 1024-row
/// batches; the two runs must agree (as multisets), and their rows are
/// returned.
std::vector<Row> RunBothModes(const std::function<OperatorPtr()>& make) {
  std::vector<Row> results[2];
  for (size_t batch_size : {size_t{0}, size_t{1024}}) {
    OperatorPtr op = make();
    ExecContext ctx;
    ctx.batch_size = batch_size;
    Result<std::vector<Row>> rows = ExecuteToVector(op.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) results[batch_size == 0 ? 0 : 1] = std::move(*rows);
  }
  EXPECT_TRUE(MultisetEquals(results[0], results[1]))
      << "tuple-at-a-time and batch execution disagree";
  return results[1];
}

OperatorPtr Join(OperatorPtr left, OperatorPtr right,
                 std::vector<size_t> left_keys,
                 std::vector<size_t> right_keys, ExprPtr residual = nullptr,
                 std::vector<size_t> output = {}) {
  return OperatorPtr(new HashJoinOp(std::move(left), std::move(right),
                                    std::move(left_keys),
                                    std::move(right_keys),
                                    std::move(residual), std::move(output)));
}

OperatorPtr SemiJoin(OperatorPtr outer, OperatorPtr inner,
                     std::vector<size_t> outer_keys,
                     std::vector<size_t> inner_keys, bool negated) {
  return OperatorPtr(new HashSemiJoinOp(
      std::move(outer), std::move(inner), std::move(outer_keys),
      std::move(inner_keys), nullptr, negated));
}

TEST(JoinCoreTest, NullKeysOnBothSidesNeverMatch) {
  auto left = [] {
    return Source({TypeId::kInteger},
                  {MakeRow({Int(1)}), MakeRow({NullInt()}), MakeRow({Int(2)})});
  };
  auto right = [] {
    return Source({TypeId::kInteger},
                  {MakeRow({NullInt()}), MakeRow({Int(1)}), MakeRow({Int(3)})});
  };
  std::vector<Row> joined =
      RunBothModes([&] { return Join(left(), right(), {0}, {0}); });
  EXPECT_TRUE(MultisetEquals(joined, {MakeRow({Int(1), Int(1)})}));
  std::vector<Row> semi =
      RunBothModes([&] { return SemiJoin(left(), right(), {0}, {0}, false); });
  EXPECT_TRUE(MultisetEquals(semi, {MakeRow({Int(1)})}));
  // NOT EXISTS keeps the NULL-keyed outer row: nothing equals NULL.
  std::vector<Row> anti =
      RunBothModes([&] { return SemiJoin(left(), right(), {0}, {0}, true); });
  EXPECT_TRUE(MultisetEquals(anti, {MakeRow({NullInt()}), MakeRow({Int(2)})}));
}

TEST(JoinCoreTest, CompositeKeysMatchOnEveryColumn) {
  const std::vector<TypeId> two = {TypeId::kInteger, TypeId::kInteger};
  auto left = [&] {
    return Source(two, {MakeRow({Int(1), Int(1)}), MakeRow({Int(1), Int(2)}),
                        MakeRow({Int(2), Int(1)}), MakeRow({NullInt(), Int(1)})});
  };
  auto right = [&] {
    return Source({TypeId::kInteger, TypeId::kInteger, TypeId::kString},
                  {MakeRow({Int(1), Int(1), Value::String("x")}),
                   MakeRow({Int(1), Int(2), Value::String("y")}),
                   MakeRow({Int(1), Int(2), Value::String("z")}),
                   MakeRow({Int(2), Int(2), Value::String("w")}),
                   MakeRow({Int(1), NullInt(), Value::String("n")})});
  };
  std::vector<Row> joined = RunBothModes(
      [&] { return Join(left(), right(), {0, 1}, {0, 1}, nullptr, {4}); });
  EXPECT_TRUE(MultisetEquals(
      joined, {MakeRow({Value::String("x")}), MakeRow({Value::String("y")}),
               MakeRow({Value::String("z")})}));
  std::vector<Row> semi = RunBothModes(
      [&] { return SemiJoin(left(), right(), {0, 1}, {0, 1}, false); });
  EXPECT_TRUE(MultisetEquals(
      semi, {MakeRow({Int(1), Int(1)}), MakeRow({Int(1), Int(2)})}));
  std::vector<Row> anti = RunBothModes(
      [&] { return SemiJoin(left(), right(), {0, 1}, {0, 1}, true); });
  EXPECT_TRUE(MultisetEquals(
      anti, {MakeRow({Int(2), Int(1)}), MakeRow({NullInt(), Int(1)})}));
}

TEST(JoinCoreTest, IntegerKeysJoinEqualDoubles) {
  // 1 = 1.0 and 10^15 = 1e15 under SQL `=`; 1.5 equals no integer.
  // Either side may build.
  constexpr int64_t kBig = 1000000000000000;
  auto ints = [] {
    return Source({TypeId::kInteger},
                  {MakeRow({Int(1)}), MakeRow({Int(2)}), MakeRow({Int(kBig)})});
  };
  auto doubles = [] {
    return Source({TypeId::kDouble},
                  {MakeRow({Dbl(1.0)}), MakeRow({Dbl(1.5)}),
                   MakeRow({Dbl(static_cast<double>(kBig))})});
  };
  const Value big_dbl = Dbl(static_cast<double>(kBig));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return Join(ints(), doubles(), {0}, {0}); }),
      {MakeRow({Int(1), Dbl(1.0)}), MakeRow({Int(kBig), big_dbl})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return Join(doubles(), ints(), {0}, {0}); }),
      {MakeRow({Dbl(1.0), Int(1)}), MakeRow({big_dbl, Int(kBig)})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return SemiJoin(ints(), doubles(), {0}, {0}, false); }),
      {MakeRow({Int(1)}), MakeRow({Int(kBig)})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return SemiJoin(doubles(), ints(), {0}, {0}, true); }),
      {MakeRow({Dbl(1.5)})}));
  // INTERSECT, hashed and sort-merged, keeps the left input's 1 and 10^15.
  const std::vector<Row> intersection = {MakeRow({Int(1)}),
                                         MakeRow({Int(kBig)})};
  EXPECT_TRUE(MultisetEquals(RunBothModes([&] {
                               return OperatorPtr(new SetOpOp(
                                   SetOpAlgebra::kIntersect,
                                   DuplicateMode::kDist, ints(), doubles()));
                             }),
                             intersection));
  EXPECT_TRUE(MultisetEquals(RunBothModes([&] {
                               return OperatorPtr(
                                   new SortMergeIntersectOp(ints(), doubles()));
                             }),
                             intersection));
}

TEST(JoinCoreTest, DuplicateBuildKeysEachMatch) {
  auto left = [] {
    return Source({TypeId::kInteger}, {MakeRow({Int(7)}), MakeRow({Int(8)})});
  };
  auto right = [] {
    return Source({TypeId::kInteger, TypeId::kInteger},
                  {MakeRow({Int(7), Int(1)}), MakeRow({Int(7), Int(2)}),
                   MakeRow({Int(8), Int(3)}), MakeRow({Int(7), Int(4)})});
  };
  std::vector<Row> joined =
      RunBothModes([&] { return Join(left(), right(), {0}, {0}, nullptr, {2}); });
  EXPECT_TRUE(MultisetEquals(joined, {MakeRow({Int(1)}), MakeRow({Int(2)}),
                                      MakeRow({Int(3)}), MakeRow({Int(4)})}));
  // A semi-join emits each outer row once, however many rows match it.
  EXPECT_EQ(
      RunBothModes([&] { return SemiJoin(left(), right(), {0}, {0}, false); })
          .size(),
      2u);
}

TEST(JoinCoreTest, HighBitKeysSpreadOverBuckets) {
  // Keys that differ only above bit 20 share their low bits; without the
  // hash finalizer all 1,024 would chain in one bucket of the
  // 1,024-bucket table.
  std::vector<Row> rows;
  for (int64_t k = 0; k < 1024; ++k) rows.push_back(MakeRow({Int(k << 20)}));
  OperatorPtr build = Source({TypeId::kInteger}, rows);
  JoinHashTable table({0});
  ExecContext ctx;
  ASSERT_OK(table.Build(build.get(), &ctx));
  EXPECT_EQ(table.size(), 1024u);
  EXPECT_LE(table.LongestChain(), 16u);
  for (const Row& probe : rows) {
    JoinHashTable::Matches m = table.Find(probe, {0});
    ASSERT_FALSE(m.done());
    EXPECT_EQ(m.row()[0].AsInteger(), probe[0].AsInteger());
    m.Next();
    EXPECT_TRUE(m.done());
  }
}

TEST(JoinCoreTest, ResidualAndInterleavedOutputColumns) {
  // L(a, b) ⋈ R(c, d) on a = c with residual b < d, emitting
  // (d, a, c, b): the π is fused into the join, columns from both sides.
  const std::vector<TypeId> two = {TypeId::kInteger, TypeId::kInteger};
  auto left = [&] {
    return Source(two, {MakeRow({Int(1), Int(5)}), MakeRow({Int(1), Int(50)}),
                        MakeRow({Int(2), Int(5)})});
  };
  auto right = [&] {
    return Source(two, {MakeRow({Int(1), Int(10)}), MakeRow({Int(1), Int(20)}),
                        MakeRow({Int(2), Int(1)})});
  };
  ExprPtr residual = Expr::Compare(CompareOp::kLt,
                                   Expr::ColumnRef(1, "B", TypeId::kInteger),
                                   Expr::ColumnRef(3, "D", TypeId::kInteger));
  std::vector<Row> rows = RunBothModes([&] {
    return Join(left(), right(), {0}, {0}, residual, {3, 0, 2, 1});
  });
  EXPECT_TRUE(MultisetEquals(rows, {MakeRow({Int(10), Int(1), Int(1), Int(5)}),
                                    MakeRow({Int(20), Int(1), Int(1), Int(5)})}));
  OperatorPtr op = Join(left(), right(), {0}, {0}, residual, {3, 0, 2, 1});
  ASSERT_EQ(op->schema().num_columns(), 4u);
  EXPECT_EQ(op->schema().column(0).name, "C1");
  EXPECT_EQ(op->schema().column(1).name, "C0");
}

TEST(JoinCoreTest, UnpinnedBorrowedBuildRowsAreCopied) {
  // SortDistinct and HashAggregate hand out borrowed slices of storage
  // they free at Close, with no pin: the build must not keep pointers
  // into them (ASan flags any it keeps).
  auto left = [] {
    return Source({TypeId::kInteger}, {MakeRow({Int(1)}), MakeRow({Int(2)}),
                                       MakeRow({Int(3)})});
  };
  auto right_rows = [] {
    return Source({TypeId::kInteger, TypeId::kString},
                  {MakeRow({Int(2), Value::String("two")}),
                   MakeRow({Int(3), Value::String("three")}),
                   MakeRow({Int(2), Value::String("two")})});
  };
  std::vector<Row> sorted = RunBothModes([&] {
    return Join(left(), OperatorPtr(new SortDistinctOp(right_rows())), {0},
                {0}, nullptr, {0, 2});
  });
  EXPECT_TRUE(MultisetEquals(
      sorted, {MakeRow({Int(2), Value::String("two")}),
               MakeRow({Int(3), Value::String("three")})}));
  std::vector<Row> aggregated = RunBothModes([&] {
    OperatorPtr input = right_rows();
    Schema schema = input->schema().Project({0});
    return Join(left(),
                OperatorPtr(new HashAggregateOp(std::move(input), schema, {0},
                                                {})),
                {0}, {0});
  });
  EXPECT_TRUE(MultisetEquals(
      aggregated, {MakeRow({Int(2), Int(2)}), MakeRow({Int(3), Int(3)})}));
  std::vector<Row> semi = RunBothModes([&] {
    return SemiJoin(left(), OperatorPtr(new SortDistinctOp(right_rows())),
                    {0}, {0}, true);
  });
  EXPECT_TRUE(MultisetEquals(semi, {MakeRow({Int(1)})}));
}

TEST(JoinCoreTest, PinnedScanRowsAreBorrowedThroughFilters) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE R (K INTEGER, V VARCHAR(10))"));
  ASSERT_OK_AND_ASSIGN(Table * table, db.GetTable("R"));
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_OK(table->InsertValues({Int(k % 100), Value::String("v")}));
  }
  auto scan = [&] {
    return OperatorPtr(new TableScanOp(table, table->def().schema()));
  };
  // K < 10 keeps 30 build rows; a tuple-mode build must run the filter
  // as well (interpreted), not only the batch path's compiled program.
  auto filtered_scan = [&] {
    return OperatorPtr(new FilterOp(
        scan(), Expr::Compare(CompareOp::kLt,
                              Expr::ColumnRef(0, "K", TypeId::kInteger),
                              Expr::Literal(Int(10)))));
  };

  // Scans pin their snapshot, filters pass the pin on, pipeline
  // breakers (which free their output at Close) hand out none.
  ExecContext ctx;
  ctx.batch_size = 1024;
  RowBatch batch;
  OperatorPtr pinned = filtered_scan();
  ASSERT_OK(pinned->Open(&ctx));
  ASSERT_OK_AND_ASSIGN(bool more, pinned->NextBatch(&ctx, &batch));
  ASSERT_TRUE(more);
  EXPECT_NE(batch.pin(), nullptr);
  pinned->Close();
  SortDistinctOp sorted(scan());
  ASSERT_OK(sorted.Open(&ctx));
  ASSERT_OK_AND_ASSIGN(more, sorted.NextBatch(&ctx, &batch));
  ASSERT_TRUE(more);
  EXPECT_EQ(batch.pin(), nullptr);
  sorted.Close();

  auto probe = [] {
    std::vector<Row> rows;
    for (int64_t k = 0; k < 20; ++k) rows.push_back(MakeRow({Int(k)}));
    return Source({TypeId::kInteger}, std::move(rows));
  };
  std::vector<Row> joined = RunBothModes(
      [&] { return Join(probe(), filtered_scan(), {0}, {0}, nullptr, {0}); });
  EXPECT_EQ(joined.size(), 30u);  // keys 0..9, three build rows each
  std::vector<Row> anti = RunBothModes(
      [&] { return SemiJoin(probe(), filtered_scan(), {0}, {0}, true); });
  EXPECT_EQ(anti.size(), 10u);  // keys 10..19
}

// ------------------------------------------------------------- sorting

/// The same value: NULL-ness, type and bits (1 is not 1.0, -0.0 is not
/// 0.0, a NULL INTEGER is not a NULL DOUBLE).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == TypeId::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.Compare(b) == 0;
}

/// The same rows in the same order, compared with SameValue.
::testing::AssertionResult SameRows(const std::vector<Row>& actual,
                                    const std::vector<Row>& expected) {
  bool same = actual.size() == expected.size();
  for (size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i].size() == expected[i].size();
    for (size_t c = 0; same && c < actual[i].size(); ++c) {
      same = SameValue(actual[i][c], expected[i][c]);
    }
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "actual:\n" << RowsToString(actual) << "expected:\n"
         << RowsToString(expected);
}

/// Sorts `rows` as SortDistinctOp and SortMergeIntersectOp did before
/// they extracted keys: std::sort over a counting Row::Compare.
void ReferenceSort(std::vector<Row>* rows, size_t* comparisons) {
  std::sort(rows->begin(), rows->end(),
            [comparisons](const Row& a, const Row& b) {
              ++*comparisons;
              return a.Compare(b) < 0;
            });
}

Value Str(std::string s) { return Value::String(std::move(s)); }

/// One value pool per kind of column the sort extracts keys for; rows
/// draw each column from its pool.
std::vector<std::vector<Value>> SortPools() {
  const std::string shared = "shared-prefix-";  // 14 bytes
  const std::string eight = shared + "ABCDEFGH";
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  return {
      // INTEGER mixed with DOUBLE and NULLs of three types: ordered by
      // Value::Compare alone.
      {NullInt(), Value::Null(TypeId::kDouble), Value::Null(TypeId::kString),
       Int(1), Dbl(1.0), Dbl(1.5), Int(0), Dbl(-0.0), Int(-2)},
      {Dbl(-0.0), Dbl(0.0), Dbl(1.5), Dbl(-1.5), Dbl(inf), Dbl(-inf),
       Dbl(tiny), Dbl(-tiny), Value::Null(TypeId::kDouble)},
      {Int(std::numeric_limits<int64_t>::min()),
       Int(std::numeric_limits<int64_t>::max()), Int(-1), Int(0), Int(1),
       NullInt()},
      {Value::Boolean(false), Value::Boolean(true),
       Value::Null(TypeId::kBoolean)},
      // Past the 14-byte shared prefix the next 8 bytes tie; the strings
      // then differ, or differ only in length.
      {Str(eight + "x"), Str(eight + "y"), Str(eight), Str(eight + "xx"),
       Str(eight + std::string(1, '\0')), Str(shared + "Z"),
       Value::Null(TypeId::kString)},
      // Empty strings, embedded '\0' and bytes above 0x7f.
      {Str(""), Str(std::string(1, '\0')), Str(std::string("a\0", 2)),
       Str("a"), Str(std::string("a\0b", 3)), Str("ab"), Str("\x7f"),
       Str("\xff"), Value::Null(TypeId::kString)},
      // Strings of up to 8 bytes: too long for a length byte beside them.
      {Str(""), Str(std::string("abcdefg\0", 8)), Str("abcdefg\x08"),
       Str("abcdefg"), Str("abcdefgh"), Value::Null(TypeId::kString)},
  };
}

/// `n` seeded rows whose columns draw from `pools`.
std::vector<Row> PoolRows(const std::vector<std::vector<Value>>& pools,
                          size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> cells;
    for (const std::vector<Value>& pool : pools) {
      cells.push_back(pool[rng() % pool.size()]);
    }
    rows.push_back(Row(std::move(cells)));
  }
  return rows;
}

/// Each pool alone, two short-string and integer columns, and all pools
/// side by side.
std::vector<std::vector<std::vector<Value>>> SortShapes() {
  const std::vector<std::vector<Value>> pools = SortPools();
  std::vector<std::vector<std::vector<Value>>> shapes;
  for (const std::vector<Value>& pool : pools) shapes.push_back({pool});
  shapes.push_back({pools[5], pools[2]});
  shapes.push_back(pools);
  return shapes;
}

/// A source of `rows`, `width` columns wide; the sorts read no column
/// types.
OperatorPtr RowSource(size_t width, std::vector<Row> rows) {
  return Source(std::vector<TypeId>(width, TypeId::kInteger),
                std::move(rows));
}

TEST(OperatorsTest, SortDistinctMatchesRowCompareReference) {
  for (const auto& shape : SortShapes()) {
    for (size_t n : {0, 1, 2, 3, 40, 400}) {
      std::vector<Row> input = PoolRows(shape, n, 17 + n);
      std::vector<Row> expected = input;
      size_t expected_comparisons = 0;
      ReferenceSort(&expected, &expected_comparisons);
      expected.erase(std::unique(expected.begin(), expected.end(),
                                 [](const Row& a, const Row& b) {
                                   return a.Compare(b) == 0;
                                 }),
                     expected.end());
      for (size_t batch_size : {0, 1024, 7}) {
        SCOPED_TRACE("columns=" + std::to_string(shape.size()) +
                     " rows=" + std::to_string(n) +
                     " batch=" + std::to_string(batch_size));
        SortDistinctOp distinct(RowSource(shape.size(), input));
        ExecContext ctx;
        ctx.batch_size = batch_size;
        ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                             ExecuteToVector(&distinct, &ctx));
        EXPECT_TRUE(SameRows(rows, expected));
        EXPECT_EQ(ctx.stats.rows_sorted, n);
        EXPECT_EQ(ctx.stats.sort_comparisons, expected_comparisons);
      }
    }
  }
}

TEST(OperatorsTest, SortMergeIntersectMatchesRowCompareReference) {
  // Seeded inputs of every shape, and an INTEGER input intersected with
  // a DOUBLE one.
  std::vector<std::pair<std::vector<Row>, std::vector<Row>>> cases;
  for (const auto& shape : SortShapes()) {
    for (size_t n : {0, 1, 2, 40, 400}) {
      cases.push_back({PoolRows(shape, n, 5 + n), PoolRows(shape, n, 9 + n)});
    }
  }
  const std::vector<Value> ints = SortPools()[2];
  const std::vector<Value> doubles = {
      Dbl(1.0), Dbl(-0.0), Dbl(1.5), Dbl(-1.0), Dbl(9223372036854775808.0),
      Value::Null(TypeId::kDouble)};
  cases.push_back({PoolRows({ints}, 60, 3), PoolRows({doubles}, 50, 4)});
  for (const auto& [left, right] : cases) {
    // The merge as the operator runs it, counting one comparison per
    // step and keeping the left row of each match.
    std::vector<Row> l = left;
    std::vector<Row> r = right;
    size_t expected_comparisons = 0;
    ReferenceSort(&l, &expected_comparisons);
    ReferenceSort(&r, &expected_comparisons);
    std::vector<Row> expected;
    size_t i = 0;
    size_t j = 0;
    while (i < l.size() && j < r.size()) {
      ++expected_comparisons;
      int c = l[i].Compare(r[j]);
      if (c < 0) {
        ++i;
      } else if (c > 0) {
        ++j;
      } else {
        expected.push_back(l[i]);
        while (i < l.size() && l[i].Compare(expected.back()) == 0) ++i;
        while (j < r.size() && r[j].Compare(expected.back()) == 0) ++j;
      }
    }
    const size_t width = left.empty() ? 1 : left[0].size();
    for (size_t batch_size : {0, 1024, 7}) {
      SCOPED_TRACE("columns=" + std::to_string(width) +
                   " rows=" + std::to_string(left.size()) + "/" +
                   std::to_string(right.size()) +
                   " batch=" + std::to_string(batch_size));
      SortMergeIntersectOp intersect(RowSource(width, left),
                                     RowSource(width, right));
      ExecContext ctx;
      ctx.batch_size = batch_size;
      ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                           ExecuteToVector(&intersect, &ctx));
      EXPECT_TRUE(SameRows(rows, expected));
      EXPECT_EQ(ctx.stats.rows_sorted, left.size() + right.size());
      EXPECT_EQ(ctx.stats.sort_comparisons, expected_comparisons);
    }
  }
}

}  // namespace
}  // namespace uniqopt
