#ifndef UNIQOPT_STORAGE_TABLE_H_
#define UNIQOPT_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table_def.h"
#include "common/result.h"
#include "index/unique_index.h"
#include "storage/row_store.h"
#include "types/row.h"

namespace uniqopt {

/// Rows and index entries one write cloned out of storage it shared
/// with the version it was built from. Mirrored into the registry as
/// txn.rows_copied / txn.index_entries_copied by PublishWriteCounts.
struct WriteCounts {
  size_t rows_copied = 0;
  size_t index_entries_copied = 0;
};

void PublishWriteCounts(const WriteCounts& counts);

/// One committed state of a table: the rows plus one unique hash index
/// per declared key (`indexes[k]` serves `def().keys()[k]`, and an
/// index entry's ordinal is the row's position in `rows`). Published
/// versions are immutable and shared out as
/// `shared_ptr<const TableVersion>`, so a reader that pins a snapshot
/// keeps reading exactly the state it opened against no matter how many
/// statements commit after it.
///
/// A writer copies the committed version — which copies only the chunk
/// and shard directories, since rows and index shards are shared
/// structurally — and changes the copy through the mutators below,
/// which clone just the chunks and shards they touch. Rows and indexes
/// always change together; a mutator that fails leaves the copy
/// half-written, and the writer discards it.
struct TableVersion {
  RowStore rows;
  std::vector<UniqueIndex> indexes;

  /// Position of the row whose key `key_index` is `=!`-equal to `key`
  /// (projected in the key's column order). Callers implementing SQL `=`
  /// probes must short-circuit NULL probe values to "no match" first —
  /// `=!` files NULL as an ordinary value.
  std::optional<size_t> Lookup(size_t key_index, const Row& key) const;
  /// Lookup of the key that `row`'s `columns` spell (in the key's column
  /// order), read in place: no projected key row is built. Same NULL
  /// caveat as Lookup.
  std::optional<size_t> LookupColumns(size_t key_index, const Row& row,
                                      const std::vector<size_t>& columns) const;

  /// OK, or a ConstraintViolation naming the first key of `def` whose
  /// value `row` shares with a row of this version. Changes nothing.
  Status CheckKeys(const TableDef& def, const Row& row) const;

  /// Appends `row`, which CheckKeys accepted, and files its keys. The
  /// one append path of bulk load (Table::Insert) and INSERT.
  void Append(Row row, WriteCounts* counts);

  /// Replaces row `ordinal` by `row` for every change. All moving keys
  /// are unfiled before any new key is filed, so rows may trade key
  /// values (SET A = B, B = A); a new key that another row holds fails
  /// with ConstraintViolation.
  Status Update(const TableDef& def,
                std::vector<std::pair<size_t, Row>> changes,
                WriteCounts* counts);

  /// Deletes the rows at `ordinals` (distinct). Rows from the end move
  /// into the holes, so positions stay dense and storage shrinks with
  /// the live row count; the order of the remaining rows may change.
  void Remove(std::vector<size_t> ordinals, WriteCounts* counts);

  /// A new index over `key_columns`, filled from these rows; the first
  /// `=!`-duplicate fails with ConstraintViolation naming `key_name`.
  Result<UniqueIndex> BuildIndex(std::vector<size_t> key_columns,
                                 const std::string& key_name,
                                 const std::string& table_name) const;
};

using TableSnapshot = std::shared_ptr<const TableVersion>;

/// An in-memory base table over copy-on-write versions. Inserts
/// enforce, in order: arity and column types, NOT NULL, CHECK
/// constraints (true-interpreted: a row is rejected only when a CHECK
/// evaluates to FALSE — SQL2 semantics), FOREIGN KEYs, and key
/// uniqueness.
///
/// Key uniqueness follows the paper's reading of SQL2 UNIQUE (§2.1):
/// NULL is treated as one special value under the null-equality operator
/// `=!`, so at most one row may carry NULL in a single-column candidate
/// key. This is what makes declared UNIQUE constraints usable as key
/// dependencies in Theorem 1.
///
/// Concurrency contract: any number of readers pin immutable snapshots
/// via Snapshot(); at most one writer per table mutates at a time
/// (serialize statements with writer_mutex()), builds the next version
/// off the current one, and publishes it with CommitVersion() only
/// after every constraint has been checked — a failed statement
/// publishes nothing, which is the atomic-rollback guarantee. rows()
/// remains for single-threaded callers (fixtures, analysis passes) and
/// is NOT safe against a concurrent writer; concurrent readers must go
/// through Snapshot().
class Database;

class Table {
 public:
  explicit Table(const TableDef* def)
      : def_(def), version_(NewVersion(def)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableDef& def() const { return *def_; }

  /// Rows of the current version. Single-threaded use only; the
  /// reference is invalidated by the next committed write.
  const RowStore& rows() const { return version_->rows; }

  /// Row count of the current version (safe to call concurrently with
  /// writers — reads through a pinned snapshot).
  size_t size() const { return Snapshot()->rows.size(); }

  /// Pins the current committed version.
  TableSnapshot Snapshot() const;

  /// Serializes writers: DML statements and index DDL hold this for
  /// their whole read-modify-publish cycle.
  std::mutex& writer_mutex() const { return writer_mu_; }

  /// Publishes `next` as the current version. The caller must hold
  /// writer_mutex() and must have validated every constraint already —
  /// publication is the commit point.
  void CommitVersion(std::shared_ptr<TableVersion> next);

  /// Bulk-load insert: appends in place when no snapshot pins the
  /// current version (amortized O(1) per row), and otherwise publishes
  /// a copy-on-write successor like INSERT does.
  Status Insert(Row row);

  /// Convenience for fixtures: insert from values; aborts on arity
  /// mismatch, returns the constraint status.
  Status InsertValues(std::vector<Value> values) {
    return Insert(Row(std::move(values)));
  }

  void Clear();

  /// Attaches the owning database; enables FOREIGN KEY enforcement on
  /// insert (set automatically by Database::CreateTable).
  void SetDatabase(const Database* db) { database_ = db; }
  const Database* database() const { return database_; }

  /// True when a row with this key value (projected in the key's column
  /// order) exists. `key_index` indexes def().keys(). Backed by the
  /// current version's unique index, so the answer tracks every
  /// committed write (the old one-shot key_sets_ went stale under DML).
  bool ContainsKeyValue(size_t key_index, const Row& key_row) const;

  /// Row/type/NOT NULL/CHECK validation for a candidate row. Public so
  /// the DML executor can run the same checks against its pending
  /// version before committing.
  Status Validate(const Row& row) const;

  /// FOREIGN KEY validation for a candidate row against the committed
  /// snapshots of the parent tables.
  Status ValidateForeignKeys(const Row& row) const;

 private:
  static std::shared_ptr<TableVersion> NewVersion(const TableDef* def);

  const TableDef* def_;
  const Database* database_ = nullptr;
  mutable std::mutex version_mu_;  // guards version_ pointer load/store
  mutable std::mutex writer_mu_;   // single writer per table
  std::shared_ptr<TableVersion> version_;
};

struct CreateIndexStmt;

/// A catalog plus its table instances — the "database" the executor and
/// examples run against.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Read-only: only Database changes its catalog, so every table
  /// instance stays in step with its definition (DropTable frees both).
  const Catalog& catalog() const { return catalog_; }

  /// Bumps the catalog version for a committed DML statement
  /// (DmlExecutor calls it on every commit); the plan-cache key mixes
  /// the version in, so no plan cached before the write is served after.
  void BumpVersionOnCommit() { catalog_.BumpVersion(); }

  /// Registers a definition and creates an empty instance.
  Status CreateTable(TableDef def);
  /// Drops the table, its rows and its constraints; bumps the catalog
  /// version (invalidating cached plans that referenced it) and purges
  /// the advisor store of suggestions that referenced the table.
  Status DropTable(const std::string& name);
  /// Parses and runs `CREATE TABLE ...`, `DROP TABLE ...`, or
  /// `CREATE UNIQUE INDEX ...`.
  Status ExecuteDdl(std::string_view sql);

  /// Declares a UNIQUE key named `index_name` over `columns`, validating
  /// every existing row first: a duplicate under `=!` fails with
  /// ConstraintViolation and declares nothing. On success the catalog
  /// version bumps and the new version carries the populated index.
  /// Returns the number of rows validated.
  Result<size_t> CreateUniqueIndex(const std::string& table_name,
                                   const std::string& index_name,
                                   const std::vector<std::string>& columns);

  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

 private:
  Catalog catalog_;
  std::vector<std::unique_ptr<Table>> tables_;  // parallel to catalog order
};

}  // namespace uniqopt

#endif  // UNIQOPT_STORAGE_TABLE_H_
