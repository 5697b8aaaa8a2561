#include "exec/operators.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "exec/row_sort.h"

namespace uniqopt {

std::string ExecStats::ToString() const {
  std::string out;
  out += "rows_scanned=" + std::to_string(rows_scanned);
  out += " rows_sorted=" + std::to_string(rows_sorted);
  out += " sort_comparisons=" + std::to_string(sort_comparisons);
  out += " hash_probes=" + std::to_string(hash_probes);
  out += " hash_build_rows=" + std::to_string(hash_build_rows);
  out += " inner_loop_rows=" + std::to_string(inner_loop_rows);
  out += " rows_output=" + std::to_string(rows_output);
  out += " index_probes=" + std::to_string(index_probes);
  return out;
}

namespace {

size_t BatchCapacity(const ExecContext* ctx) {
  return ctx->batch_size > 0 ? ctx->batch_size : RowBatch::kDefaultBatchSize;
}

/// Drains an operator (Open, pull until exhausted, Close) into a vector,
/// via the batch path when the context enables it. Rows of owned batches
/// are moved out, borrowed ones copied.
Result<std::vector<Row>> Drain(Operator* op, ExecContext* ctx) {
  UNIQOPT_RETURN_NOT_OK(op->Open(ctx));
  std::vector<Row> rows;
  if (ctx->batch_size > 0) {
    RowBatch batch(ctx->batch_size);
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, op->NextBatch(ctx, &batch));
      if (!more) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        rows.push_back(batch.TakeRow(i));
      }
    }
  } else {
    Row row;
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, op->Next(ctx, &row));
      if (!more) break;
      rows.push_back(std::move(row));
    }
  }
  op->Close();
  return rows;
}

}  // namespace

Result<std::vector<Row>> ExecuteToVector(Operator* op, ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> out, Drain(op, ctx));
  ctx->stats.rows_output += out.size();
  return out;
}

// ---------------------------------------------------------------- TableScan
Status TableScanOp::Open(ExecContext*) {
  // Pin the committed version for the whole execution: concurrent DML
  // publishes new versions, but this scan keeps reading the immutable
  // state it opened against (snapshot isolation for readers). The pin
  // is held past Close() so batches that borrowed storage slices stay
  // valid until the operator tree is destroyed.
  snapshot_ = table_->Snapshot();
  pos_ = 0;
  return Status::OK();
}

Result<bool> TableScanOp::Next(ExecContext* ctx, Row* row) {
  if (pos_ >= snapshot_->rows.size()) return false;
  *row = snapshot_->rows[pos_++];
  ++ctx->stats.rows_scanned;
  return true;
}

Result<bool> TableScanOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  if (pos_ >= snapshot_->rows.size()) return false;
  std::span<const Row> run = snapshot_->rows.RunFrom(pos_);
  size_t n = std::min(out->capacity(), run.size());
  out->Borrow(run.data(), n, snapshot_);
  pos_ += n;
  ctx->stats.rows_scanned += n;
  return true;
}

void TableScanOp::Close() {}

// ------------------------------------------------------------------- Filter
FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : FilterOp(std::move(child), predicate.get(), &owned_program_) {
  owned_program_ = PredicateProgram::Compile(predicate);
  owned_predicate_ = std::move(predicate);
}

Status FilterOp::Open(ExecContext* ctx) { return child_->Open(ctx); }

Result<bool> FilterOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->Next(ctx, row));
    if (!more) return false;
    if (predicate_->EvaluatePredicate(*row, ctx->params) == Tribool::kTrue) {
      return true;
    }
  }
}

Result<bool> FilterOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, out));
    if (!more) return false;
    program_->FilterSel(out->data(), &out->selection(), ctx->params);
    if (!out->selection().empty()) return true;  // else pull the next batch
  }
}

void FilterOp::Close() { child_->Close(); }

// ------------------------------------------------------------------ Project
ProjectOp::ProjectOp(OperatorPtr child, std::vector<size_t> columns)
    : ProjectOp(std::move(child), &owned_columns_, nullptr) {
  OwnSchema(child_->schema().Project(columns));
  owned_columns_ = std::move(columns);
}

Status ProjectOp::Open(ExecContext* ctx) {
  input_batch_ = RowBatch(BatchCapacity(ctx));
  return child_->Open(ctx);
}

Result<bool> ProjectOp::Next(ExecContext* ctx, Row* row) {
  Row input;
  UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->Next(ctx, &input));
  if (!more) return false;
  *row = input.Project(*columns_);
  return true;
}

Result<bool> ProjectOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_batch_));
  if (!more) return false;
  for (size_t i = 0; i < input_batch_.size(); ++i) {
    out->Append(input_batch_.row(i).Project(*columns_));
  }
  return true;
}

void ProjectOp::Close() { child_->Close(); }

// ------------------------------------------------------------- SortDistinct
Status SortDistinctOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(rows_, Drain(child_.get(), ctx));
  ctx->stats.rows_sorted += rows_.size();
  // Compact to one row per `=!`-equal group (Row::Compare treats NULLs
  // as equal, matching `=!`); emission is then a plain slice, shared by
  // the tuple and batch paths.
  SortRows(&rows_, /*distinct=*/true, &ctx->stats.sort_comparisons);
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortDistinctOp::Next(ExecContext*, Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

Result<bool> SortDistinctOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= rows_.size()) return false;
  size_t n = std::min(out->capacity(), rows_.size() - pos_);
  out->Borrow(rows_.data() + pos_, n);
  pos_ += n;
  return true;
}

void SortDistinctOp::Close() { rows_.clear(); }

// ------------------------------------------------------------- HashDistinct
Status HashDistinctOp::Open(ExecContext* ctx) {
  seen_.clear();
  input_batch_ = RowBatch(BatchCapacity(ctx));
  return child_->Open(ctx);
}

Result<bool> HashDistinctOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->Next(ctx, row));
    if (!more) return false;
    ++ctx->stats.hash_probes;
    if (seen_.insert(*row).second) return true;
  }
}

Result<bool> HashDistinctOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more,
                             child_->NextBatch(ctx, &input_batch_));
    if (!more) return !out->empty();
    for (size_t i = 0; i < input_batch_.size(); ++i) {
      const Row& row = input_batch_.row(i);
      ++ctx->stats.hash_probes;
      if (seen_.insert(row).second) out->Append(row);
    }
    if (out->size() >= out->capacity()) return true;
    if (!out->empty()) return true;
  }
}

void HashDistinctOp::Close() {
  seen_.clear();
  child_->Close();
}

// ------------------------------------------------------ NestedLoopProduct
Status NestedLoopProductOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get(), ctx));
  UNIQOPT_RETURN_NOT_OK(left_->Open(ctx));
  have_left_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopProductOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    if (!have_left_ || right_pos_ >= right_rows_.size()) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->Next(ctx, &left_row_));
      if (!more) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    if (right_pos_ < right_rows_.size()) {
      ++ctx->stats.inner_loop_rows;
      *row = Row::Concat(left_row_, right_rows_[right_pos_++]);
      return true;
    }
  }
}

void NestedLoopProductOp::Close() {
  left_->Close();
  right_rows_.clear();
}

// ----------------------------------------------------------------- HashJoin
HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual,
                       std::vector<size_t> output_columns,
                       const Schema* schema)
    : Operator(schema),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      residual_(std::move(residual)),
      output_(left_->schema().num_columns(), right_->schema().num_columns(),
              std::move(output_columns)),
      build_(std::move(right_keys)) {
  if (schema == nullptr) {
    OwnSchema(JoinProjection::OutputSchema(left_->schema(), right_->schema(),
                                           output_.columns()));
  }
}

Status HashJoinOp::Open(ExecContext* ctx) {
  UNIQOPT_RETURN_NOT_OK(build_.Build(right_.get(), ctx));
  UNIQOPT_RETURN_NOT_OK(left_->Open(ctx));
  matches_ = JoinHashTable::Matches();
  probe_batch_ = RowBatch(BatchCapacity(ctx));
  return Status::OK();
}

Result<bool> HashJoinOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    for (; !matches_.done(); matches_.Next()) {
      if (ResidualHolds(residual_, left_row_, matches_.row(), *ctx)) {
        *row = output_.Make(left_row_, matches_.row());
        matches_.Next();
        return true;
      }
    }
    UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->Next(ctx, &left_row_));
    if (!more) return false;
    ++ctx->stats.hash_probes;
    matches_ = build_.Find(left_row_, left_keys_);
  }
}

Result<bool> HashJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more,
                             left_->NextBatch(ctx, &probe_batch_));
    if (!more) return !out->empty();
    ctx->stats.hash_probes += probe_batch_.size();
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      const Row& probe = probe_batch_.row(i);
      for (auto m = build_.Find(probe, left_keys_); !m.done(); m.Next()) {
        if (ResidualHolds(residual_, probe, m.row(), *ctx)) {
          out->Append(output_.Make(probe, m.row()));
        }
      }
    }
    if (!out->empty()) return true;  // else probe the next batch
  }
}

void HashJoinOp::Close() {
  left_->Close();
  build_.Clear();
}

// ------------------------------------------------------ NestedLoopSemiJoin
Status NestedLoopSemiJoinOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(inner_rows_, Drain(inner_.get(), ctx));
  return outer_->Open(ctx);
}

Result<bool> NestedLoopSemiJoinOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, outer_->Next(ctx, row));
    if (!more) return false;
    bool found = false;
    for (const Row& inner : inner_rows_) {
      ++ctx->stats.inner_loop_rows;
      Row combined = Row::Concat(*row, inner);
      if (correlation_->EvaluatePredicate(combined, ctx->params) ==
          Tribool::kTrue) {
        found = true;
        break;  // EXISTS needs only one witness.
      }
    }
    if (found != negated_) return true;
  }
}

void NestedLoopSemiJoinOp::Close() {
  outer_->Close();
  inner_rows_.clear();
}

// ---------------------------------------------------------- HashSemiJoin
Status HashSemiJoinOp::Open(ExecContext* ctx) {
  UNIQOPT_RETURN_NOT_OK(build_.Build(inner_.get(), ctx));
  return outer_->Open(ctx);
}

bool HashSemiJoinOp::Passes(const Row& row, ExecContext* ctx) const {
  bool found = false;
  if (!HasNullKey(row, outer_keys_)) {
    ++ctx->stats.hash_probes;
    for (auto m = build_.Find(row, outer_keys_); !m.done() && !found;
         m.Next()) {
      found = ResidualHolds(residual_, row, m.row(), *ctx);
    }
  }
  return found != negated_;
}

Result<bool> HashSemiJoinOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, outer_->Next(ctx, row));
    if (!more) return false;
    if (Passes(*row, ctx)) return true;
  }
}

Result<bool> HashSemiJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, outer_->NextBatch(ctx, out));
    if (!more) return false;
    std::vector<uint32_t>& selection = out->selection();
    size_t kept = 0;
    for (uint32_t index : selection) {
      if (Passes(out->data()[index], ctx)) selection[kept++] = index;
    }
    selection.resize(kept);
    if (!selection.empty()) return true;  // else pull the next batch
  }
}

void HashSemiJoinOp::Close() {
  outer_->Close();
  build_.Clear();
}

// -------------------------------------------------------------------- SetOp
Status SetOpOp::Open(ExecContext* ctx) {
  right_counts_.clear();
  emitted_.clear();
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows, Drain(right_.get(), ctx));
  for (Row& r : rows) {
    ++ctx->stats.hash_build_rows;
    ++right_counts_[std::move(r)];
  }
  return left_->Open(ctx);
}

Result<bool> SetOpOp::Next(ExecContext* ctx, Row* row) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->Next(ctx, row));
    if (!more) return false;
    ++ctx->stats.hash_probes;
    auto it = right_counts_.find(*row);
    size_t right_count = it == right_counts_.end() ? 0 : it->second;
    if (op_ == SetOpAlgebra::kIntersect) {
      if (mode_ == DuplicateMode::kDist) {
        // r0 ∈ result iff it occurs in both; emit once.
        if (right_count > 0 && emitted_.insert(*row).second) return true;
      } else {
        // INTERSECT ALL: min(j, k) occurrences.
        if (right_count > 0) {
          --it->second;
          return true;
        }
      }
    } else {  // EXCEPT
      if (mode_ == DuplicateMode::kDist) {
        if (right_count == 0 && emitted_.insert(*row).second) return true;
      } else {
        // EXCEPT ALL: max(j − k, 0) occurrences.
        if (right_count > 0) {
          --it->second;
        } else {
          return true;
        }
      }
    }
  }
}

void SetOpOp::Close() {
  left_->Close();
  right_counts_.clear();
  emitted_.clear();
}

// ------------------------------------------------------- HashAggregate
namespace {

/// Grouping + aggregate folding under `=!` for HashAggregateOp.
class GroupedAggregator {
 public:
  GroupedAggregator(const Schema& input_schema,
                    std::vector<size_t> group_columns,
                    std::vector<AggregateItem> aggregates);

  /// Folds one input row into its group's states, counting one hash
  /// probe into `stats`.
  void Accumulate(const Row& row, ExecStats* stats);

  /// Materializes the output rows (group key columns ⊕ aggregate
  /// results). A scalar aggregate over empty input yields one row
  /// (COUNT = 0, other aggregates NULL). Fails with kLimitExceeded when
  /// an INTEGER SUM falls outside int64.
  Result<std::vector<Row>> Finalize() const;

 private:
  struct AggState {
    int64_t count = 0;        // non-NULL inputs (or rows for COUNT(*))
    __int128 sum_int = 0;     // exact: no run of int64 inputs overflows it
    double sum_double = 0;
    Value min;
    Value max;
    bool any = false;         // saw a non-NULL input
  };

  void Fold(std::vector<AggState>* group, const Row& row) const;
  size_t GroupSlot(const Row& key_source);

  std::vector<size_t> group_columns_;
  std::vector<AggregateItem> aggregates_;
  std::vector<TypeId> arg_types_;  ///< result type per aggregate
  std::unordered_map<Row, size_t, RowHash, RowNullSafeEqual> group_index_;
  std::vector<Row> group_keys_;
  std::vector<std::vector<AggState>> states_;
};

GroupedAggregator::GroupedAggregator(const Schema& input_schema,
                                     std::vector<size_t> group_columns,
                                     std::vector<AggregateItem> aggregates)
    : group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)) {
  arg_types_.reserve(aggregates_.size());
  for (const AggregateItem& agg : aggregates_) {
    arg_types_.push_back(agg.func == AggFunc::kCountStar
                             ? TypeId::kInteger
                             : input_schema.column(agg.arg_column).type);
  }
}

size_t GroupedAggregator::GroupSlot(const Row& key_source) {
  // Scalar aggregate: one global group, no per-row key projection or
  // hashing.
  if (group_columns_.empty()) {
    if (states_.empty()) {
      group_keys_.emplace_back();
      states_.emplace_back(aggregates_.size());
    }
    return 0;
  }
  Row key = key_source.Project(group_columns_);
  auto [it, inserted] = group_index_.emplace(std::move(key),
                                             group_keys_.size());
  if (inserted) {
    group_keys_.push_back(key_source.Project(group_columns_));
    states_.emplace_back(aggregates_.size());
  }
  return it->second;
}

void GroupedAggregator::Fold(std::vector<AggState>* group,
                             const Row& row) const {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggregateItem& agg = aggregates_[a];
    AggState& st = (*group)[a];
    if (agg.func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    const Value& v = row[agg.arg_column];
    if (v.is_null()) continue;  // SQL: aggregates ignore NULLs
    ++st.count;
    st.any = true;
    switch (agg.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == TypeId::kInteger) {
          st.sum_int += v.AsInteger();
        }
        st.sum_double += v.AsNumeric();
        break;
      case AggFunc::kMin:
        if (st.count == 1) {
          st.min = v;
        } else if (v.type() == TypeId::kInteger &&
                   st.min.type() == TypeId::kInteger) {
          // Integer fast path: both sides non-NULL here, compare inline.
          if (v.AsInteger() < st.min.AsInteger()) st.min = v;
        } else if (v.Compare(st.min) < 0) {
          st.min = v;
        }
        break;
      case AggFunc::kMax:
        if (st.count == 1) {
          st.max = v;
        } else if (v.type() == TypeId::kInteger &&
                   st.max.type() == TypeId::kInteger) {
          if (v.AsInteger() > st.max.AsInteger()) st.max = v;
        } else if (v.Compare(st.max) > 0) {
          st.max = v;
        }
        break;
      default:
        break;
    }
  }
}

void GroupedAggregator::Accumulate(const Row& row, ExecStats* stats) {
  ++stats->hash_probes;
  Fold(&states_[GroupSlot(row)], row);
}

Result<std::vector<Row>> GroupedAggregator::Finalize() const {
  std::vector<Row> out_rows;
  // A scalar aggregate always yields one group, even over empty input.
  const bool scalar_empty = group_columns_.empty() && group_keys_.empty();
  size_t groups = scalar_empty ? 1 : group_keys_.size();
  const std::vector<AggState> empty_states(aggregates_.size());
  for (size_t g = 0; g < groups; ++g) {
    Row out = scalar_empty ? Row() : group_keys_[g];
    const std::vector<AggState>& group =
        scalar_empty ? empty_states : states_[g];
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateItem& agg = aggregates_[a];
      const AggState& st = group[a];
      TypeId arg_type = arg_types_[a];
      switch (agg.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          out.Append(Value::Integer(st.count));
          break;
        case AggFunc::kSum:
          if (!st.any) {
            out.Append(Value::Null(arg_type));
          } else if (arg_type == TypeId::kInteger) {
            if (st.sum_int > std::numeric_limits<int64_t>::max() ||
                st.sum_int < std::numeric_limits<int64_t>::min()) {
              return Status::LimitExceeded(agg.name +
                                           " is outside the INTEGER range");
            }
            out.Append(Value::Integer(static_cast<int64_t>(st.sum_int)));
          } else {
            out.Append(Value::Double(st.sum_double));
          }
          break;
        case AggFunc::kAvg:
          out.Append(st.any ? Value::Double(st.sum_double /
                                            static_cast<double>(st.count))
                            : Value::Null(TypeId::kDouble));
          break;
        case AggFunc::kMin:
          out.Append(st.any ? st.min : Value::Null(arg_type));
          break;
        case AggFunc::kMax:
          out.Append(st.any ? st.max : Value::Null(arg_type));
          break;
      }
    }
    out_rows.push_back(std::move(out));
  }
  return out_rows;
}

}  // namespace

Status HashAggregateOp::Open(ExecContext* ctx) {
  output_.clear();
  pos_ = 0;
  GroupedAggregator agg(child_->schema(), group_columns_, aggregates_);
  UNIQOPT_RETURN_NOT_OK(child_->Open(ctx));
  if (ctx->batch_size > 0) {
    // Accumulate straight off borrowed batches — no materialization of
    // the input, no per-row copies.
    RowBatch batch(ctx->batch_size);
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &batch));
      if (!more) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        agg.Accumulate(batch.row(i), &ctx->stats);
      }
    }
  } else {
    Row row;
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->Next(ctx, &row));
      if (!more) break;
      agg.Accumulate(row, &ctx->stats);
    }
  }
  child_->Close();
  UNIQOPT_ASSIGN_OR_RETURN(output_, agg.Finalize());
  return Status::OK();
}

Result<bool> HashAggregateOp::Next(ExecContext*, Row* row) {
  if (pos_ >= output_.size()) return false;
  *row = output_[pos_++];
  return true;
}

Result<bool> HashAggregateOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= output_.size()) return false;
  size_t n = std::min(out->capacity(), output_.size() - pos_);
  out->Borrow(output_.data() + pos_, n);
  pos_ += n;
  return true;
}

void HashAggregateOp::Close() { output_.clear(); }

// ------------------------------------------------------ SortMergeIntersect
Status SortMergeIntersectOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> left, Drain(left_.get(), ctx));
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> right, Drain(right_.get(), ctx));
  ctx->stats.rows_sorted += left.size() + right.size();
  size_t* comparisons = &ctx->stats.sort_comparisons;
  SortRows(&left, /*distinct=*/false, comparisons);
  SortRows(&right, /*distinct=*/false, comparisons);
  out_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() && j < right.size()) {
    ++*comparisons;
    int c = left[i].Compare(right[j]);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Emit one copy per distinct value (DISTINCT semantics).
      out_.push_back(left[i]);
      const Row& v = out_.back();
      while (i < left.size() && left[i].Compare(v) == 0) ++i;
      while (j < right.size() && right[j].Compare(v) == 0) ++j;
    }
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortMergeIntersectOp::Next(ExecContext*, Row* row) {
  if (pos_ >= out_.size()) return false;
  *row = out_[pos_++];
  return true;
}

Result<bool> SortMergeIntersectOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= out_.size()) return false;
  size_t n = std::min(out->capacity(), out_.size() - pos_);
  out->Borrow(out_.data() + pos_, n);
  pos_ += n;
  return true;
}

void SortMergeIntersectOp::Close() { out_.clear(); }

}  // namespace uniqopt
