#include "storage/table.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/advisor.h"
#include "obs/metrics.h"
#include "parser/ast.h"
#include "parser/parser.h"
#include "plan/binder.h"

namespace uniqopt {

namespace {

/// True when `a` and `b` agree on every column of `columns` under `=!`.
bool SameKey(const Row& a, const Row& b, const std::vector<size_t>& columns) {
  for (size_t c : columns) {
    if (!a[c].NullSafeEquals(b[c])) return false;
  }
  return true;
}

Status DuplicateKey(const Row& row, const std::vector<size_t>& columns,
                    const std::string& key_name,
                    const std::string& table_name) {
  return Status::ConstraintViolation("duplicate key " +
                                     row.Project(columns).ToString() +
                                     " for " + key_name + " on " + table_name);
}

/// Position of the row of `version` that holds `row`'s value of key `k`.
std::optional<size_t> KeyHolder(const TableVersion& version, size_t k,
                                const Row& row) {
  const UniqueIndex& index = version.indexes[k];
  return index.Find(index.HashOfRow(row), [&](size_t ordinal) {
    return SameKey(version.rows[ordinal], row, index.key_columns());
  });
}

}  // namespace

void PublishWriteCounts(const WriteCounts& counts) {
  static obs::Counter& rows_copied =
      obs::MetricsRegistry::Global().GetCounter("txn.rows_copied");
  static obs::Counter& entries_copied =
      obs::MetricsRegistry::Global().GetCounter("txn.index_entries_copied");
  rows_copied.Increment(counts.rows_copied);
  entries_copied.Increment(counts.index_entries_copied);
}

std::optional<size_t> TableVersion::Lookup(size_t key_index,
                                           const Row& key) const {
  const UniqueIndex& index = indexes.at(key_index);
  const std::vector<size_t>& columns = index.key_columns();
  return index.Find(UniqueIndex::HashOfKey(key), [&](size_t ordinal) {
    const Row& row = rows[ordinal];
    for (size_t j = 0; j < columns.size(); ++j) {
      if (!row[columns[j]].NullSafeEquals(key[j])) return false;
    }
    return true;
  });
}

std::optional<size_t> TableVersion::LookupColumns(
    size_t key_index, const Row& row,
    const std::vector<size_t>& columns) const {
  const UniqueIndex& index = indexes.at(key_index);
  const std::vector<size_t>& key_columns = index.key_columns();
  return index.Find(
      UniqueIndex::HashOfColumns(row, columns), [&](size_t ordinal) {
        const Row& candidate = rows[ordinal];
        for (size_t j = 0; j < key_columns.size(); ++j) {
          if (!candidate[key_columns[j]].NullSafeEquals(row[columns[j]])) {
            return false;
          }
        }
        return true;
      });
}

Status TableVersion::CheckKeys(const TableDef& def, const Row& row) const {
  for (size_t k = 0; k < indexes.size(); ++k) {
    if (KeyHolder(*this, k, row).has_value()) {
      return DuplicateKey(row, indexes[k].key_columns(), def.keys()[k].name,
                          def.name());
    }
  }
  return Status::OK();
}

void TableVersion::Append(Row row, WriteCounts* counts) {
  const size_t ordinal = rows.size();
  for (UniqueIndex& index : indexes) {
    counts->index_entries_copied +=
        index.Insert(index.HashOfRow(row), ordinal);
  }
  counts->rows_copied += rows.Append(std::move(row));
}

Status TableVersion::Update(const TableDef& def,
                            std::vector<std::pair<size_t, Row>> changes,
                            WriteCounts* counts) {
  // moves[c * keys + k]: change c gives key k a new value.
  const size_t keys = indexes.size();
  std::vector<bool> moves(changes.size() * keys, false);
  for (size_t c = 0; c < changes.size(); ++c) {
    const auto& [ordinal, row] = changes[c];
    for (size_t k = 0; k < keys; ++k) {
      UniqueIndex& index = indexes[k];
      if (SameKey(rows[ordinal], row, index.key_columns())) continue;
      moves[c * keys + k] = true;
      counts->index_entries_copied +=
          index.Erase(index.HashOfRow(rows[ordinal]), ordinal);
    }
  }
  for (auto& [ordinal, row] : changes) {
    counts->rows_copied += rows.Set(ordinal, std::move(row));
  }
  for (size_t c = 0; c < changes.size(); ++c) {
    const size_t ordinal = changes[c].first;
    const Row& row = rows[ordinal];
    for (size_t k = 0; k < keys; ++k) {
      if (!moves[c * keys + k]) continue;
      if (KeyHolder(*this, k, row).has_value()) {
        return DuplicateKey(row, indexes[k].key_columns(),
                            def.keys()[k].name, def.name());
      }
      counts->index_entries_copied +=
          indexes[k].Insert(indexes[k].HashOfRow(row), ordinal);
    }
  }
  return Status::OK();
}

void TableVersion::Remove(std::vector<size_t> ordinals, WriteCounts* counts) {
  // Highest first: the row that moves into a hole is then never one
  // that is still to be deleted.
  std::sort(ordinals.begin(), ordinals.end(), std::greater<size_t>());
  for (size_t ordinal : ordinals) {
    const size_t last = rows.size() - 1;
    for (UniqueIndex& index : indexes) {
      counts->index_entries_copied +=
          index.Erase(index.HashOfRow(rows[ordinal]), ordinal);
      if (ordinal != last) {
        counts->index_entries_copied +=
            index.Repoint(index.HashOfRow(rows[last]), last, ordinal);
      }
    }
    counts->rows_copied += rows.SwapRemove(ordinal);
  }
}

Result<UniqueIndex> TableVersion::BuildIndex(
    std::vector<size_t> key_columns, const std::string& key_name,
    const std::string& table_name) const {
  UniqueIndex index(std::move(key_columns));
  const std::vector<size_t>& columns = index.key_columns();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const uint64_t hash = index.HashOfRow(row);
    auto holder = index.Find(hash, [&](size_t ordinal) {
      return SameKey(rows[ordinal], row, columns);
    });
    if (holder.has_value()) {
      return DuplicateKey(row, columns, key_name, table_name);
    }
    index.Insert(hash, i);
  }
  return index;
}

std::shared_ptr<TableVersion> Table::NewVersion(const TableDef* def) {
  auto version = std::make_shared<TableVersion>();
  version->indexes.reserve(def->keys().size());
  for (const KeyConstraint& key : def->keys()) {
    version->indexes.emplace_back(key.columns);
  }
  return version;
}

TableSnapshot Table::Snapshot() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  return version_;
}

void Table::CommitVersion(std::shared_ptr<TableVersion> next) {
  std::lock_guard<std::mutex> lock(version_mu_);
  version_ = std::move(next);
}

Status Table::Validate(const Row& row) const {
  const Schema& schema = def_->schema();
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table " +
        def_->name() + " arity " + std::to_string(schema.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("NULL in NOT NULL column " +
                                           col.name + " of " + def_->name());
      }
      continue;
    }
    if (!Value::Comparable(v.type(), col.type)) {
      return Status::TypeMismatch("value " + v.ToString() +
                                  " incompatible with column " + col.name +
                                  " of type " + TypeIdToString(col.type));
    }
  }
  // CHECK constraints are true-interpreted: only FALSE rejects.
  static const std::vector<Value> kNoParams;
  for (const CheckConstraint& check : def_->checks()) {
    Tribool t = check.predicate->EvaluatePredicate(row, kNoParams);
    if (t == Tribool::kFalse) {
      return Status::ConstraintViolation(
          "row " + row.ToString() + " violates CHECK (" +
          (check.sql_text.empty() ? check.predicate->ToString()
                                  : check.sql_text) +
          ") on " + def_->name());
    }
  }
  return Status::OK();
}

bool Table::ContainsKeyValue(size_t key_index, const Row& key_row) const {
  TableSnapshot snap = Snapshot();
  if (key_index >= snap->indexes.size()) return false;
  return snap->Lookup(key_index, key_row).has_value();
}

Status Table::ValidateForeignKeys(const Row& row) const {
  if (database_ == nullptr) return Status::OK();
  for (const ForeignKeyConstraint& fk : def_->foreign_keys()) {
    // MATCH SIMPLE: a NULL in any referencing column exempts the row.
    bool any_null = false;
    for (size_t c : fk.columns) any_null = any_null || row[c].is_null();
    if (any_null) continue;

    UNIQOPT_ASSIGN_OR_RETURN(const Table* parent,
                             database_->GetTable(fk.ref_table));
    UNIQOPT_ASSIGN_OR_RETURN(ResolvedForeignKey resolved,
                             ResolveForeignKey(fk, parent->def()));
    if (!resolved.key_index.has_value()) {
      return Status::Internal("foreign key " + fk.name +
                              " does not match a key of " + fk.ref_table);
    }
    if (!parent->ContainsKeyValue(*resolved.key_index,
                                  row.Project(resolved.child_columns))) {
      return Status::ConstraintViolation(
          "row " + row.ToString() + " violates " + fk.name +
          ": no matching row in " + fk.ref_table);
    }
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  UNIQOPT_RETURN_NOT_OK(Validate(row));
  UNIQOPT_RETURN_NOT_OK(ValidateForeignKeys(row));
  std::lock_guard<std::mutex> vlock(version_mu_);
  UNIQOPT_RETURN_NOT_OK(version_->CheckKeys(*def_, row));
  // use_count()==1 means nobody holds a pinned snapshot (new pins are
  // blocked while we hold version_mu_), so bulk loads append in place;
  // otherwise the successor shares every chunk and shard the append
  // does not touch, and pinned readers keep their version.
  if (version_.use_count() > 1) {
    version_ = std::make_shared<TableVersion>(*version_);
  }
  WriteCounts counts;
  version_->Append(std::move(row), &counts);
  PublishWriteCounts(counts);
  return Status::OK();
}

void Table::Clear() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::lock_guard<std::mutex> vlock(version_mu_);
  version_ = NewVersion(def_);
}

Status Database::CreateTable(TableDef def) {
  UNIQOPT_RETURN_NOT_OK(catalog_.AddTable(std::move(def)));
  // The catalog owns the definition; point the instance at it.
  const std::string name = catalog_.TableNames().back();
  UNIQOPT_ASSIGN_OR_RETURN(const TableDef* stored, catalog_.GetTable(name));
  tables_.push_back(std::make_unique<Table>(stored));
  tables_.back()->SetDatabase(this);
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  std::string key = ToUpperAscii(name);
  // Drop the instance before the definition: the Table points into the
  // catalog-owned TableDef.
  bool found = false;
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if ((*it)->def().name() == key) {
      tables_.erase(it);
      found = true;
      break;
    }
  }
  Status st = catalog_.DropTable(name);
  if (!found && st.ok()) {
    return Status::Internal("table instance missing for " + name);
  }
  if (st.ok()) {
    // Stale suggestions for a dropped table would otherwise survive and
    // `\advisor replay`/`adopt` would reference a missing table.
    obs::AdvisorStore::Global().PurgeTable(key);
  }
  return st;
}

Result<size_t> Database::CreateUniqueIndex(
    const std::string& table_name, const std::string& index_name,
    const std::vector<std::string>& columns) {
  UNIQOPT_ASSIGN_OR_RETURN(Table* table, GetTable(table_name));
  std::lock_guard<std::mutex> writer(table->writer_mutex());
  UNIQOPT_ASSIGN_OR_RETURN(TableDef* def,
                           catalog_.GetTableMutable(table_name));
  std::vector<size_t> ordinals;
  for (const std::string& cn : columns) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, def->ColumnOrdinal(cn));
    ordinals.push_back(ord);
  }
  // Validate existing rows before declaring anything: a duplicate under
  // `=!` means the data cannot support the key, and the statement must
  // leave both catalog and table untouched.
  TableSnapshot snap = table->Snapshot();
  UNIQOPT_ASSIGN_OR_RETURN(
      UniqueIndex index,
      snap->BuildIndex(std::move(ordinals), index_name, def->name()));
  UNIQOPT_RETURN_NOT_OK(def->AddNamedUniqueKey(index_name, columns));
  auto next = std::make_shared<TableVersion>(*snap);
  next->indexes.push_back(std::move(index));
  table->CommitVersion(std::move(next));
  catalog_.BumpVersion();
  return snap->rows.size();
}

Status Database::ExecuteDdl(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  if (stmt->create_table != nullptr) {
    UNIQOPT_ASSIGN_OR_RETURN(TableDef def,
                             BuildTableDef(*stmt->create_table));
    return CreateTable(std::move(def));
  }
  if (stmt->drop_table != nullptr) {
    return DropTable(stmt->drop_table->table_name);
  }
  if (stmt->create_index != nullptr) {
    return CreateUniqueIndex(stmt->create_index->table_name,
                             stmt->create_index->index_name,
                             stmt->create_index->columns)
        .status();
  }
  return Status::InvalidArgument(
      "expected a CREATE TABLE, DROP TABLE, or CREATE UNIQUE INDEX "
      "statement");
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::string key = ToUpperAscii(name);
  for (auto& t : tables_) {
    if (t->def().name() == key) return t.get();
  }
  return Status::NotFound("table not found: " + name);
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  std::string key = ToUpperAscii(name);
  for (const auto& t : tables_) {
    if (t->def().name() == key) return t.get();
  }
  return Status::NotFound("table not found: " + name);
}

}  // namespace uniqopt
