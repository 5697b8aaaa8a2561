#ifndef UNIQOPT_EXEC_JOIN_HASH_TABLE_H_
#define UNIQOPT_EXEC_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "exec/operator.h"
#include "expr/expr.h"

namespace uniqopt {

/// True when any of `row`'s `columns` is NULL: such a key never matches
/// under SQL `=` (3VL), on either side of a join.
bool HasNullKey(const Row& row, const std::vector<size_t>& columns);

/// The build side of every hash equi-join (inner, semi and anti): build
/// rows referenced by ordinal, chained per bucket through uint32 links,
/// with each row's 64-bit key hash stored beside it.
///
/// Keys are hashed in place (UniqueIndex::HashOfColumns: Value::Hash per
/// column, then the 64-bit finalizer, so keys that differ only in high
/// bits still spread over a power-of-two bucket array) and compared with
/// Value::Compare, so INTEGER 1 joins DOUBLE 1.0. Rows with a NULL key
/// are never filed, and no key row is projected. Rows of pinned borrowed
/// batches (table scans, filters over them) are referenced where they
/// lie and the pin is kept; rows of owned batches and of tuple-at-a-time
/// input are moved into the table; only rows of unpinned borrowed
/// batches (pipeline-breaker output, freed at its Close) are copied.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  /// `keys` are the build rows' key columns.
  explicit JoinHashTable(std::vector<size_t> keys) : keys_(std::move(keys)) {}

  // Not copyable: rows_ points into owned_.
  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Opens `build`, drains it in the mode `ctx` selects (NextBatch when
  /// ctx->batch_size > 0, else Next — a filter below runs its compiled
  /// program only on the batch path), closes it, and files every row
  /// whose key holds no NULL, counting each into
  /// ctx->stats.hash_build_rows. Replaces any earlier contents.
  Status Build(Operator* build, ExecContext* ctx);

  /// Frees the rows, pins and arrays.
  void Clear();

  size_t size() const { return rows_.size(); }

  /// The build rows whose key equals the probe row's `probe_keys`
  /// columns (paired positionally with the build keys), latest-built
  /// first. `probe` and `probe_keys` must outlive the cursor.
  class Matches {
   public:
    bool done() const { return ordinal_ == kEnd; }
    const Row& row() const { return *table_->rows_[ordinal_]; }
    void Next() { ordinal_ = table_->Seek(table_->next_[ordinal_], *this); }

   private:
    friend class JoinHashTable;
    const JoinHashTable* table_ = nullptr;
    const Row* probe_ = nullptr;
    const std::vector<size_t>* probe_keys_ = nullptr;
    uint64_t hash_ = 0;
    uint32_t ordinal_ = kEnd;
  };

  /// A probe key holding NULL matches nothing.
  Matches Find(const Row& probe, const std::vector<size_t>& probe_keys) const;

  /// Length of the longest bucket chain (a diagnostic: the finalizer
  /// keeps it short for any key distribution).
  size_t LongestChain() const;

 private:
  /// Files `row`, whose key holds no NULL.
  void Add(const Row* row);
  /// Sizes the bucket array to the row count and links the chains.
  void Link();
  /// The first ordinal from `i` along its chain whose key matches.
  uint32_t Seek(uint32_t i, const Matches& m) const;

  std::vector<size_t> keys_;
  std::vector<const Row*> rows_;   ///< by ordinal
  std::vector<uint64_t> hashes_;   ///< by ordinal
  std::vector<uint32_t> next_;     ///< by ordinal: next in its chain
  std::vector<uint32_t> buckets_;  ///< chain heads; size a power of two
  std::deque<Row> owned_;          ///< rows moved or copied in
  std::vector<RowBatch::Pin> pins_;
};

/// The output row of a join: listed columns of the concatenation
/// probe ⊕ build, taken straight from the two rows. A projection above
/// the join is fused into it this way, so no concatenated row is built
/// just to be cut down.
class JoinProjection {
 public:
  /// `columns` index the concatenation (probe columns first); empty
  /// keeps all of it.
  JoinProjection(size_t left_width, size_t right_width,
                 std::vector<size_t> columns);

  /// The schema of the rows Make builds.
  static Schema OutputSchema(const Schema& left, const Schema& right,
                             const std::vector<size_t>& columns);

  Row Make(const Row& probe, const Row& build) const;

  /// The listed columns (all of them, in order, when built from none).
  const std::vector<size_t>& columns() const { return columns_; }

 private:
  size_t left_width_;
  std::vector<size_t> columns_;
};

/// True when `residual` (over probe ⊕ build; null means none) holds for
/// the pair.
bool ResidualHolds(const ExprPtr& residual, const Row& probe,
                   const Row& build, const ExecContext& ctx);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_JOIN_HASH_TABLE_H_
