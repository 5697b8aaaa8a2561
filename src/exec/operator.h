#ifndef UNIQOPT_EXEC_OPERATOR_H_
#define UNIQOPT_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace uniqopt {

/// Work counters accumulated across one execution. The §5/§6 claims are
/// about work avoided (sort comparisons, inner scans, pointer chases), so
/// operators account for it explicitly.
struct ExecStats {
  size_t rows_scanned = 0;      ///< base-table rows read
  size_t rows_sorted = 0;       ///< rows fed into a sort
  size_t sort_comparisons = 0;  ///< comparisons performed by sorts
  size_t hash_probes = 0;       ///< hash table probes
  size_t hash_build_rows = 0;   ///< rows inserted into hash tables
  size_t inner_loop_rows = 0;   ///< inner rows visited by nested loops
  size_t rows_output = 0;       ///< rows returned by the root operator
  size_t index_probes = 0;      ///< unique-index point/join probes

  void Reset() { *this = ExecStats(); }
  /// Adds another execution's counters to this one.
  void Merge(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_sorted += other.rows_sorted;
    sort_comparisons += other.sort_comparisons;
    hash_probes += other.hash_probes;
    hash_build_rows += other.hash_build_rows;
    inner_loop_rows += other.inner_loop_rows;
    rows_output += other.rows_output;
    index_probes += other.index_probes;
  }
  std::string ToString() const;
};

/// Per-execution context: host variable values (the paper's `h`), the
/// stats sink, and the batch size driving the vectorized path (0 =
/// tuple-at-a-time).
struct ExecContext {
  std::vector<Value> params;
  ExecStats stats;
  /// When > 0, ExecuteToVector and the materializing operators drive
  /// their inputs through NextBatch with batches of this many rows.
  size_t batch_size = 0;
};

/// Volcano-style iterator. Usage: Open → Next until false → Close.
/// Operators own their children. A batch-at-a-time path (NextBatch) is
/// layered on top: operators with a vectorized implementation override
/// it, everything else falls back to looping Next so exotic operators
/// keep working unchanged. An operator instance is driven in exactly
/// one of the two modes per execution.
class Operator {
 public:
  /// An operator producing rows of `schema`, which it owns.
  explicit Operator(Schema schema)
      : owned_schema_(std::move(schema)), schema_(&owned_schema_) {}
  /// An operator producing rows of `*schema`, which it borrows: from its
  /// input, or from the PhysicalPlan its tree was built from (which the
  /// tree keeps alive).
  explicit Operator(const Schema* schema) : schema_(schema) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const Schema& schema() const { return *schema_; }

  /// Keeps `owner` alive as long as this operator: the root of a tree
  /// built from a PhysicalPlan holds the plan its operators borrow from.
  void set_owner(std::shared_ptr<const void> owner) {
    owner_ = std::move(owner);
  }

  virtual Status Open(ExecContext* ctx) = 0;
  /// Produces the next row into `*row`; returns false at end of stream.
  virtual Result<bool> Next(ExecContext* ctx, Row* row) = 0;
  virtual void Close() = 0;

  /// Produces the next batch of rows into `*out` (after resetting it).
  /// Returns false exactly at end of stream, with `*out` empty; a true
  /// return carries at least one row (possibly fewer than capacity).
  virtual Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) {
    out->Reset();
    Row row;
    while (out->size() < out->capacity()) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, Next(ctx, &row));
      if (!more) break;
      out->Append(std::move(row));
    }
    return !out->empty();
  }

  /// Operator name for EXPLAIN-style output.
  virtual std::string name() const = 0;

 protected:
  /// Owns `schema` from now on: a constructor that derives its schema
  /// when none is lent to it passes a null one to Operator, then this.
  void OwnSchema(Schema schema) {
    owned_schema_ = std::move(schema);
    schema_ = &owned_schema_;
  }

 private:
  Schema owned_schema_;  ///< empty when the schema is borrowed
  const Schema* schema_;
  std::shared_ptr<const void> owner_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` into a vector (Open/Next/Close), counting output rows.
/// Uses the batch path when ctx->batch_size > 0.
Result<std::vector<Row>> ExecuteToVector(Operator* op, ExecContext* ctx);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_OPERATOR_H_
