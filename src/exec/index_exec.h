#ifndef UNIQOPT_EXEC_INDEX_EXEC_H_
#define UNIQOPT_EXEC_INDEX_EXEC_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/join_hash_table.h"
#include "exec/operator.h"
#include "exec/planner.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace uniqopt {

/// Index-backed execution: the unique hash indexes that the DML plane
/// maintains to *enforce* declared keys double as access paths. A
/// predicate whose Type-1 equality conjuncts cover a declared key
/// identifies at most one row (the paper's §2 single-row guarantee), so
/// the scan collapses to one hash probe; a hash join whose build side is
/// a bare keyed Get needs no build phase at all — the committed index
/// already IS the hash table.
///
/// The Match* helpers below are shared by the planner's lowering and the
/// cost model so the two always agree on when an index applies.

/// How a point-lookup probe value is obtained at Open time: a literal
/// from the query text or a host-variable slot (exactly one is set).
struct IndexProbe {
  std::optional<Value> constant;
  std::optional<size_t> host_var;

  Value Resolve(const std::vector<Value>& params) const {
    return constant.has_value() ? *constant : params.at(*host_var);
  }
};

/// σ[pred](Get(T)) matched to a unique-index point lookup. `probes` are
/// arranged in the key's declared column order; conjuncts not consumed
/// by the probe remain in `residual` (table coordinates).
struct IndexLookupMatch {
  size_t key_index = 0;
  std::vector<IndexProbe> probes;
  std::vector<ExprPtr> residual;
};

/// Matches when Type-1 equality conjuncts of `predicate` cover every
/// column of some declared key of `def` (first-declared key wins, which
/// puts PRIMARY KEY ahead of later UNIQUE declarations). Returns nullopt
/// when no key is fully covered.
std::optional<IndexLookupMatch> MatchIndexLookup(const TableDef& def,
                                                 const ExprPtr& predicate);

/// A probe key for key `key_index` of `def`: `values`, in the key's
/// column order, coerced to the key columns' types. None when a value
/// is NULL (SQL `=` never matches NULL, even though the index files
/// NULL keys under `=!`) or cannot equal any value of its column (7.5
/// against an INTEGER key): the probe then matches nothing.
std::optional<Row> ProbeKey(const TableDef& def, size_t key_index,
                            std::vector<Value> values);

/// A join predicate σ[pred](L × R) split the way lowering splits it.
struct JoinSplit {
  /// Crossing equi-conjuncts L.a = R.b, as paired column positions
  /// (right ones in right coordinates).
  std::vector<size_t> left_keys;
  std::vector<size_t> right_keys;
  /// Single-side conjuncts pushed below the join; `right_only` is
  /// rebased to right coordinates.
  std::vector<ExprPtr> left_only;
  std::vector<ExprPtr> right_only;
  /// Everything else, in product coordinates.
  std::vector<ExprPtr> residual;
};

/// Equi-pairs become keys only under `options.join == kHash`, and
/// single-side conjuncts are pushed only under
/// `options.predicate_pushdown`; the rest is residual.
JoinSplit SplitJoinPredicate(const ExprPtr& predicate, size_t left_width,
                             const PhysicalOptions& options);

/// A hash join whose right (build) side can be replaced by unique-index
/// probes: the right-side equi-columns are exactly a declared key.
struct IndexJoinMatch {
  size_t key_index = 0;
  /// Probe-side (left) columns rearranged into the key's column order.
  std::vector<size_t> left_keys;
};

/// Matches when `right_keys` (build-side columns, right coordinates,
/// paired positionally with `left_keys`) form exactly the column set of
/// a declared key of `right_def`. Duplicate right columns or extra
/// equi-pairs fall back to the classic hash build.
std::optional<IndexJoinMatch> MatchUniqueIndexJoin(
    const TableDef& right_def, const std::vector<size_t>& left_keys,
    const std::vector<size_t>& right_keys);

/// "NAME" for named keys, else "T(A,B)" — used in operator names so
/// EXPLAIN ANALYZE shows which index carried the probe.
std::string KeyDisplayName(const TableDef& def, size_t key_index);

/// Everything a point lookup reads besides the data, decided once per
/// plan: a PhysicalPlan keeps it and every IndexLookupOp built from the
/// plan borrows it.
struct IndexLookupSpec {
  const Table* table = nullptr;
  const Schema* schema = nullptr;  ///< the Get's, kept alive by the plan
  size_t key_index = 0;
  std::vector<IndexProbe> probes;  ///< in the key's column order
  ExprPtr residual;                ///< unprobed conjuncts; null when none
  std::string key_name;            ///< KeyDisplayName
};

/// Point lookup: probes the table's unique index `key_index` once and
/// emits at most one row (filtered through `residual` when present).
/// A NULL probe value emits nothing — SQL `=` never matches NULL, even
/// though the index itself files NULL keys under `=!`.
class IndexLookupOp final : public Operator {
 public:
  /// Borrows `spec`, which outlives the operator.
  explicit IndexLookupOp(const IndexLookupSpec& spec)
      : Operator(spec.schema), spec_(spec) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  void Close() override;
  std::string name() const override {
    return "IndexLookup(" + spec_.key_name + ")";
  }

 private:
  const IndexLookupSpec& spec_;
  /// Pinned for the lifetime of the operator so a borrowed matched row
  /// stays valid across a concurrent writer's commit.
  TableSnapshot snapshot_;
  std::optional<Row> match_;
};

/// Everything a unique-index join reads besides the data, decided once
/// per plan like IndexLookupSpec.
struct IndexJoinSpec {
  const Table* right_table = nullptr;
  const Schema* schema = nullptr;  ///< the output's, kept by the plan
  size_t key_index = 0;
  std::vector<size_t> left_keys;   ///< probe columns, in key order
  std::vector<TypeId> key_types;   ///< the key columns' types
  ExprPtr right_filter;            ///< right coordinates; null when none
  ExprPtr residual;                ///< over left ⊕ right; null when none
  std::string key_name;            ///< KeyDisplayName
  JoinProjection output;
};

/// Join probing the build side's unique index instead of building a hash
/// table: for each left row, probe the index with the row's key columns
/// read in place (coerced through ProbeKey only when a value's type
/// differs from its key column's) and emit the spec's `output` columns
/// of left ⊕ right (the π above the join, fused into it). Output is
/// identical to HashJoinOp when the right equi-columns are a declared
/// key (at most one match per probe). `right_filter` holds pushed-down
/// right-side conjuncts in right coordinates; `residual` is evaluated
/// over left ⊕ right.
class UniqueIndexJoinOp final : public Operator {
 public:
  /// Borrows `spec`, which outlives the operator.
  UniqueIndexJoinOp(OperatorPtr left, const IndexJoinSpec& spec)
      : Operator(spec.schema), left_(std::move(left)), spec_(spec) {}

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  /// Probes a whole input batch per call.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override {
    return "UniqueIndexJoin(" + spec_.key_name + ")";
  }

 private:
  /// The right row joining `left_row` (filter and residual applied), or
  /// null.
  const Row* Match(const Row& left_row, ExecContext* ctx) const;

  OperatorPtr left_;
  const IndexJoinSpec& spec_;
  TableSnapshot snapshot_;
  RowBatch probe_batch_;
  std::vector<const Row*> matches_;  ///< per probe-batch row
};

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_INDEX_EXEC_H_
