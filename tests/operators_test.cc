// Direct operator-level tests for the volcano executor: edge cases that
// SQL-level tests reach only indirectly (NULL join keys, residual
// predicates, re-Open behaviour, empty inputs), and the hash-join core
// (JoinHashTable) in both execution modes and over every kind of build
// input: owned batches, pinned table-scan slices, and unpinned slices
// that their producer frees at Close.

#include <cstdint>
#include <functional>

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
  // 1 = 1.0 under SQL `=`; 1.5 equals no integer. Either side may build.
  auto ints = [] {
    return Source({TypeId::kInteger}, {MakeRow({Int(1)}), MakeRow({Int(2)})});
  };
  auto doubles = [] {
    return Source({TypeId::kDouble}, {MakeRow({Dbl(1.0)}), MakeRow({Dbl(1.5)})});
  };
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return Join(ints(), doubles(), {0}, {0}); }),
      {MakeRow({Int(1), Dbl(1.0)})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return Join(doubles(), ints(), {0}, {0}); }),
      {MakeRow({Dbl(1.0), Int(1)})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return SemiJoin(ints(), doubles(), {0}, {0}, false); }),
      {MakeRow({Int(1)})}));
  EXPECT_TRUE(MultisetEquals(
      RunBothModes([&] { return SemiJoin(doubles(), ints(), {0}, {0}, true); }),
      {MakeRow({Dbl(1.5)})}));
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

}  // namespace
}  // namespace uniqopt
