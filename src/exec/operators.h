#ifndef UNIQOPT_EXEC_OPERATORS_H_
#define UNIQOPT_EXEC_OPERATORS_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/join_hash_table.h"
#include "exec/operator.h"
#include "expr/expr.h"
#include "expr/predicate_program.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace uniqopt {

/// Full scan of an in-memory base table.
class TableScanOp final : public Operator {
 public:
  TableScanOp(const Table* table, Schema schema)
      : Operator(std::move(schema)), table_(table) {}
  /// Borrows `*schema` (see Operator).
  TableScanOp(const Table* table, const Schema* schema)
      : Operator(schema), table_(table) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  /// Borrows a contiguous slice of the table's storage (at most one
  /// chunk) — zero copies.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "TableScan"; }

 private:
  const Table* table_;
  TableSnapshot snapshot_;  ///< pinned at Open; immutable under DML
  size_t pos_ = 0;
};

/// Produces no rows. Lowered from selections whose predicate is the
/// FALSE literal (e.g. after the DetectEmptyResult rewrite) so the
/// input is never opened or scanned.
class EmptySourceOp final : public Operator {
 public:
  explicit EmptySourceOp(Schema schema) : Operator(std::move(schema)) {}
  explicit EmptySourceOp(const Schema* schema) : Operator(schema) {}

  Status Open(ExecContext*) override { return Status::OK(); }
  Result<bool> Next(ExecContext*, Row*) override { return false; }
  void Close() override {}
  std::string name() const override { return "EmptySource"; }
};

/// σ[C]: passes rows whose predicate evaluates to TRUE.
class FilterOp final : public Operator {
 public:
  /// Filters by `predicate`, compiled once into a PredicateProgram.
  FilterOp(OperatorPtr child, ExprPtr predicate);
  /// Filters by a borrowed predicate and its compiled program: a tree
  /// built from a PhysicalPlan borrows both from it.
  FilterOp(OperatorPtr child, const Expr* predicate,
           const PredicateProgram* program)
      : Operator(&child->schema()),
        child_(std::move(child)),
        predicate_(predicate),
        program_(program) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  /// Compacts the child batch's selection vector in place — dropped
  /// rows cost nothing beyond the predicate evaluation. Runs the
  /// predicate as a compiled PredicateProgram rather than per-row tree
  /// interpretation.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "Filter"; }

 private:
  OperatorPtr child_;
  ExprPtr owned_predicate_;
  PredicateProgram owned_program_;
  const Expr* predicate_;
  const PredicateProgram* program_;
};

/// π_All onto a column list (no duplicate elimination).
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<size_t> columns);
  /// Borrows `*columns` and `*schema` from a PhysicalPlan (see Operator).
  ProjectOp(OperatorPtr child, const std::vector<size_t>* columns,
            const Schema* schema)
      : Operator(schema), child_(std::move(child)), columns_(columns) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "Project"; }

 private:
  OperatorPtr child_;
  std::vector<size_t> owned_columns_;
  const std::vector<size_t>* columns_;
  RowBatch input_batch_;
};

/// Duplicate elimination by sort: materializes, sorts (counting
/// comparisons — this is the cost the paper's §5.1 optimization avoids),
/// then emits one row per `=!`-equal group. The sort is SortRows.
class SortDistinctOp final : public Operator {
 public:
  explicit SortDistinctOp(OperatorPtr child)
      : Operator(&child->schema()), child_(std::move(child)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext*, Row* row) override;
  /// Emits borrowed slices of the sorted, deduplicated materialization.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "SortDistinct"; }

 private:
  OperatorPtr child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Duplicate elimination by hashing under `=!`.
class HashDistinctOp final : public Operator {
 public:
  explicit HashDistinctOp(OperatorPtr child)
      : Operator(&child->schema()), child_(std::move(child)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "HashDistinct"; }

 private:
  OperatorPtr child_;
  std::unordered_set<Row, RowHash, RowNullSafeEqual> seen_;
  RowBatch input_batch_;
};

/// Extended Cartesian product; materializes the right input.
class NestedLoopProductOp final : public Operator {
 public:
  /// `schema` lends the output schema (see Operator); null derives it.
  NestedLoopProductOp(OperatorPtr left, OperatorPtr right,
                      const Schema* schema = nullptr)
      : Operator(schema), left_(std::move(left)), right_(std::move(right)) {
    if (schema == nullptr) {
      OwnSchema(Schema::Concat(left_->schema(), right_->schema()));
    }
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  void Close() override;
  std::string name() const override { return "NestedLoopProduct"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Hash equi-join (inner). Build side is the right input, filed in a
/// JoinHashTable; rows with a NULL key never match (3VL `=`). A residual
/// predicate (over left ⊕ right) is applied to each candidate pair, and
/// each surviving pair is emitted as `output_columns` of left ⊕ right —
/// the π above the join, fused into it (empty: the whole concatenation).
/// `schema` lends the output schema (see Operator); null derives it.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<size_t> left_keys, std::vector<size_t> right_keys,
             ExprPtr residual, std::vector<size_t> output_columns = {},
             const Schema* schema = nullptr);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  /// Probes a whole input batch per call, emitting all matches.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "HashJoin"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<size_t> left_keys_;
  ExprPtr residual_;
  JoinProjection output_;
  JoinHashTable build_;
  Row left_row_;
  JoinHashTable::Matches matches_;
  RowBatch probe_batch_;
};

/// Nested-loop semi (EXISTS) or anti (NOT EXISTS) join: emits each outer
/// row once iff some / no inner row satisfies the correlation predicate
/// (evaluated over outer ⊕ inner). The naive strategy the paper's §5.2
/// rewrites avoid.
class NestedLoopSemiJoinOp final : public Operator {
 public:
  NestedLoopSemiJoinOp(OperatorPtr outer, OperatorPtr inner,
                       ExprPtr correlation, bool negated)
      : Operator(&outer->schema()),
        outer_(std::move(outer)),
        inner_(std::move(inner)),
        correlation_(std::move(correlation)),
        negated_(negated) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  void Close() override;
  std::string name() const override {
    return negated_ ? "NestedLoopAntiJoin" : "NestedLoopSemiJoin";
  }

 private:
  OperatorPtr outer_;
  OperatorPtr inner_;
  ExprPtr correlation_;
  bool negated_;
  std::vector<Row> inner_rows_;
};

/// Hash semi/anti join on extracted equi-keys with residual predicate
/// (over outer ⊕ inner). The inner side is filed in a JoinHashTable.
class HashSemiJoinOp final : public Operator {
 public:
  HashSemiJoinOp(OperatorPtr outer, OperatorPtr inner,
                 std::vector<size_t> outer_keys,
                 std::vector<size_t> inner_keys, ExprPtr residual,
                 bool negated)
      : Operator(&outer->schema()),
        outer_(std::move(outer)),
        inner_(std::move(inner)),
        outer_keys_(std::move(outer_keys)),
        residual_(std::move(residual)),
        negated_(negated),
        build_(std::move(inner_keys)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  /// Compacts the outer batch's selection vector in place, like FilterOp.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override {
    return negated_ ? "HashAntiJoin" : "HashSemiJoin";
  }

 private:
  /// Whether `row` passes: some inner row matches (none, when negated).
  bool Passes(const Row& row, ExecContext* ctx) const;

  OperatorPtr outer_;
  OperatorPtr inner_;
  std::vector<size_t> outer_keys_;
  ExprPtr residual_;
  bool negated_;
  JoinHashTable build_;
};

/// INTERSECT [ALL] / EXCEPT [ALL] with the paper's `=!` tuple
/// equivalence (NULL columns match NULL columns). Hash-based.
class SetOpOp final : public Operator {
 public:
  SetOpOp(SetOpAlgebra op, DuplicateMode mode, OperatorPtr left,
          OperatorPtr right)
      : Operator(&left->schema()),
        op_(op),
        mode_(mode),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  void Close() override;
  std::string name() const override { return "SetOp"; }

 private:
  SetOpAlgebra op_;
  DuplicateMode mode_;
  OperatorPtr left_;
  OperatorPtr right_;
  std::unordered_map<Row, size_t, RowHash, RowNullSafeEqual> right_counts_;
  std::unordered_set<Row, RowHash, RowNullSafeEqual> emitted_;
};

/// Hash aggregation for the GROUP BY extension: groups rows under `=!`
/// (NULL group keys compare equal, like DISTINCT) and folds aggregate
/// states per group. A scalar aggregate (no group columns) over empty
/// input produces one row (COUNT = 0, other aggregates NULL).
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, Schema schema,
                  std::vector<size_t> group_columns,
                  std::vector<AggregateItem> aggregates)
      : HashAggregateOp(std::move(child), nullptr, std::move(group_columns),
                        std::move(aggregates)) {
    OwnSchema(std::move(schema));
  }
  /// Borrows `*schema` (see Operator).
  HashAggregateOp(OperatorPtr child, const Schema* schema,
                  std::vector<size_t> group_columns,
                  std::vector<AggregateItem> aggregates)
      : Operator(schema),
        child_(std::move(child)),
        group_columns_(std::move(group_columns)),
        aggregates_(std::move(aggregates)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext*, Row* row) override;
  /// Emits borrowed slices of the materialized aggregate output.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "HashAggregate"; }

 private:
  OperatorPtr child_;
  std::vector<size_t> group_columns_;
  std::vector<AggregateItem> aggregates_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

/// Sort-merge INTERSECT (DISTINCT): the strategy the paper describes as
/// the typical Intersect implementation ("evaluate, sort, merge"),
/// provided as the baseline for experiment X6. Each input is sorted by
/// SortRows; the merge counts one comparison per step.
class SortMergeIntersectOp final : public Operator {
 public:
  SortMergeIntersectOp(OperatorPtr left, OperatorPtr right)
      : Operator(&left->schema()),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext*, Row* row) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return "SortMergeIntersect"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Row> out_;
  size_t pos_ = 0;
};

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_OPERATORS_H_
