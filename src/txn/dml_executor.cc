#include "txn/dml_executor.h"

#include <memory>
#include <optional>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/index_exec.h"
#include "parser/parser.h"

namespace uniqopt {
namespace txn {

namespace {

using KeyRowSet = std::unordered_set<Row, RowHash, RowNullSafeEqual>;

/// Aligns an evaluated value with a column: bare NULLs adopt the column
/// type and integer literals widen to DOUBLE columns, so key
/// projections hash identically no matter how the value was spelled.
Value CoerceToColumn(const Value& v, const Column& col) {
  if (v.is_null()) return Value::Null(col.type);
  if (col.type == TypeId::kDouble && v.type() == TypeId::kInteger) {
    return Value::Double(static_cast<double>(v.AsInteger()));
  }
  return v;
}

/// Enforces FOREIGN KEY ... RESTRICT against referencing children:
/// if any child row still references a key value this statement would
/// remove, the statement aborts. `removed_per_key[k]` holds the key
/// rows (projected in key-column order) leaving def().keys()[k].
/// `pending` carries the parent's uncommitted next version so a
/// self-referencing table is checked against the state the statement
/// would actually commit.
Status CheckNoChildReferences(
    Database* db, const Table* parent,
    const std::vector<KeyRowSet>& removed_per_key,
    const TableVersion& pending) {
  bool any_removed = false;
  for (const KeyRowSet& s : removed_per_key) any_removed |= !s.empty();
  if (!any_removed) return Status::OK();

  const std::string& parent_name = parent->def().name();
  for (const std::string& child_name : db->catalog().TableNames()) {
    UNIQOPT_ASSIGN_OR_RETURN(const Table* child, db->GetTable(child_name));
    for (const ForeignKeyConstraint& fk : child->def().foreign_keys()) {
      if (fk.ref_table != parent_name) continue;
      UNIQOPT_ASSIGN_OR_RETURN(ResolvedForeignKey resolved,
                               ResolveForeignKey(fk, parent->def()));
      if (!resolved.key_index.has_value()) {
        return Status::Internal("foreign key " + fk.name +
                                " does not match a key of " + fk.ref_table);
      }
      const KeyRowSet& removed = removed_per_key[*resolved.key_index];
      if (removed.empty()) continue;
      const std::vector<size_t>& child_cols = resolved.child_columns;
      const bool self_reference = child_name == parent_name;
      TableSnapshot child_snap;
      const RowStore* child_rows;
      if (self_reference) {
        child_rows = &pending.rows;
      } else {
        child_snap = child->Snapshot();
        child_rows = &child_snap->rows;
      }
      for (const Row& row : *child_rows) {
        // MATCH SIMPLE: any NULL exempts the row.
        bool any_null = false;
        for (size_t c : child_cols) any_null = any_null || row[c].is_null();
        if (any_null) continue;
        Row probe = row.Project(child_cols);
        if (removed.count(probe) > 0) {
          return Status::ConstraintViolation(
              "key " + probe.ToString() + " of " + parent_name +
              " is still referenced by " + fk.name + " on " + child_name);
        }
      }
    }
  }
  return Status::OK();
}

/// Positions of the rows `where` selects in `version`. A WHERE whose
/// equalities bind every column of a declared key selects at most one
/// row (the paper's uniqueness condition): it is found with one probe of
/// that key's index, the way the read planner lowers it
/// (MatchIndexLookup). Any other WHERE scans.
std::vector<size_t> MatchingRows(const TableVersion& version,
                                 const TableDef& def, const ExprPtr& where,
                                 const std::vector<Value>& params) {
  auto selects = [&](size_t i) {
    return where == nullptr ||
           where->EvaluatePredicate(version.rows[i], params) ==
               Tribool::kTrue;
  };
  std::vector<size_t> out;
  if (std::optional<IndexLookupMatch> match = MatchIndexLookup(def, where)) {
    std::vector<Value> values;
    for (const IndexProbe& probe : match->probes) {
      values.push_back(probe.Resolve(params));
    }
    std::optional<Row> key =
        ProbeKey(def, match->key_index, std::move(values));
    std::optional<size_t> ordinal;
    if (key.has_value()) ordinal = version.Lookup(match->key_index, *key);
    if (ordinal.has_value() && selects(*ordinal)) out.push_back(*ordinal);
    return out;
  }
  for (size_t i = 0; i < version.rows.size(); ++i) {
    if (selects(i)) out.push_back(i);
  }
  return out;
}

Result<std::vector<Value>> MapNamedParams(
    const BoundDml& stmt,
    const std::vector<std::pair<std::string, Value>>& named_params) {
  std::vector<Value> params;
  params.reserve(stmt.host_vars.size());
  for (const HostVariable& hv : stmt.host_vars) {
    const Value* found = nullptr;
    for (const auto& [name, value] : named_params) {
      if (EqualsIgnoreCase(name, hv.name)) {
        found = &value;
        break;
      }
    }
    if (found == nullptr) {
      return Status::InvalidArgument("no value supplied for host variable :" +
                                     hv.name);
    }
    params.push_back(*found);
  }
  return params;
}

}  // namespace

std::string DmlResult::ToString() const {
  std::string out = DmlKindName(kind);
  if (kind == DmlKind::kCreateIndex) {
    out += " (" + std::to_string(rows_affected) + " rows validated)";
  } else {
    out += " " + std::to_string(rows_affected);
  }
  return out;
}

Result<DmlResult> DmlExecutor::Execute(const BoundDml& stmt,
                                       const std::vector<Value>& params) {
  if (params.size() != stmt.host_vars.size()) {
    return Status::InvalidArgument(
        "statement takes " + std::to_string(stmt.host_vars.size()) +
        " parameters, got " + std::to_string(params.size()));
  }
  switch (stmt.kind) {
    case DmlKind::kInsert:
      return ExecuteInsert(*stmt.insert, params);
    case DmlKind::kUpdate:
      return ExecuteUpdate(*stmt.update, params);
    case DmlKind::kDelete:
      return ExecuteDelete(*stmt.del, params);
    case DmlKind::kCreateIndex: {
      UNIQOPT_ASSIGN_OR_RETURN(
          size_t validated,
          db_->CreateUniqueIndex(stmt.create_index->table_name,
                                 stmt.create_index->index_name,
                                 stmt.create_index->columns));
      DmlResult result;
      result.kind = DmlKind::kCreateIndex;
      result.rows_affected = validated;
      return result;
    }
  }
  return Status::Internal("unreachable DML kind");
}

Result<DmlResult> DmlExecutor::ExecuteSql(
    std::string_view sql,
    const std::vector<std::pair<std::string, Value>>& named_params) {
  UNIQOPT_ASSIGN_OR_RETURN(BoundDml stmt, BindDmlSql(db_, sql));
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Value> params,
                           MapNamedParams(stmt, named_params));
  return Execute(stmt, params);
}

Result<DmlResult> DmlExecutor::ExecuteInsert(const BoundInsert& stmt,
                                             const std::vector<Value>& params) {
  Table* table = stmt.table;
  const TableDef& def = table->def();
  const Schema& schema = def.schema();

  // Materialize the new rows first (expression evaluation needs no
  // locks: INSERT values are literals and host variables).
  static const Row kEmptyRow;
  std::vector<Row> new_rows;
  new_rows.reserve(stmt.rows.size());
  for (const std::vector<ExprPtr>& bound_row : stmt.rows) {
    std::vector<Value> values;
    values.reserve(schema.num_columns());
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      values.push_back(Value::Null(schema.column(i).type));
    }
    for (size_t i = 0; i < bound_row.size(); ++i) {
      size_t ord = stmt.target_ordinals[i];
      values[ord] = CoerceToColumn(bound_row[i]->Evaluate(kEmptyRow, params),
                                   schema.column(ord));
    }
    new_rows.emplace_back(std::move(values));
  }

  // Single-writer commit path: validate everything before copying the
  // committed version, so a rejected row (a duplicate key costs one probe
  // per key) copies nothing; publish only on full success.
  std::lock_guard<std::mutex> writer(table->writer_mutex());
  TableSnapshot snap = table->Snapshot();
  for (const Row& row : new_rows) {
    UNIQOPT_RETURN_NOT_OK(table->Validate(row));
    UNIQOPT_RETURN_NOT_OK(table->ValidateForeignKeys(row));
    UNIQOPT_RETURN_NOT_OK(snap->CheckKeys(def, row));
  }
  auto next = std::make_shared<TableVersion>(*snap);
  WriteCounts counts;
  for (size_t i = 0; i < new_rows.size(); ++i) {
    // Later rows of this statement must not collide with earlier ones.
    if (i > 0) UNIQOPT_RETURN_NOT_OK(next->CheckKeys(def, new_rows[i]));
    next->Append(std::move(new_rows[i]), &counts);
  }
  table->CommitVersion(std::move(next));
  PublishWriteCounts(counts);
  db_->BumpVersionOnCommit();

  DmlResult result;
  result.kind = DmlKind::kInsert;
  result.rows_affected = new_rows.size();
  return result;
}

Result<DmlResult> DmlExecutor::ExecuteUpdate(const BoundUpdate& stmt,
                                             const std::vector<Value>& params) {
  Table* table = stmt.table;
  const TableDef& def = table->def();
  const Schema& schema = def.schema();

  std::lock_guard<std::mutex> writer(table->writer_mutex());
  TableSnapshot snap = table->Snapshot();
  std::vector<std::pair<size_t, Row>> changes;
  for (size_t i : MatchingRows(*snap, def, stmt.where, params)) {
    const Row& old_row = snap->rows[i];
    // All sources evaluate against the OLD row before any assignment
    // lands (SQL read-before-write: SET A = B, B = A swaps).
    std::vector<Value> values = old_row.values();
    for (const auto& [ord, source] : stmt.assignments) {
      values[ord] = CoerceToColumn(source->Evaluate(old_row, params),
                                   schema.column(ord));
    }
    Row new_row(std::move(values));
    UNIQOPT_RETURN_NOT_OK(table->Validate(new_row));
    UNIQOPT_RETURN_NOT_OK(table->ValidateForeignKeys(new_row));
    changes.emplace_back(i, std::move(new_row));
  }
  DmlResult result;
  result.kind = DmlKind::kUpdate;
  if (changes.empty()) {
    return result;  // no-op: nothing published, no version bump
  }
  result.rows_affected = changes.size();
  std::vector<size_t> changed;
  changed.reserve(changes.size());
  for (const auto& change : changes) changed.push_back(change.first);

  // Key uniqueness over the whole pending state.
  auto next = std::make_shared<TableVersion>(*snap);
  WriteCounts counts;
  UNIQOPT_RETURN_NOT_OK(next->Update(def, std::move(changes), &counts));

  // RESTRICT: key values this update removes must not be referenced.
  std::vector<KeyRowSet> removed_per_key(def.keys().size());
  for (size_t k = 0; k < def.keys().size(); ++k) {
    const std::vector<size_t>& key_cols = def.keys()[k].columns;
    for (size_t i : changed) {
      Row old_key = snap->rows[i].Project(key_cols);
      if (!next->Lookup(k, old_key).has_value()) {
        removed_per_key[k].insert(std::move(old_key));
      }
    }
  }
  UNIQOPT_RETURN_NOT_OK(
      CheckNoChildReferences(db_, table, removed_per_key, *next));

  table->CommitVersion(std::move(next));
  PublishWriteCounts(counts);
  db_->BumpVersionOnCommit();
  return result;
}

Result<DmlResult> DmlExecutor::ExecuteDelete(const BoundDelete& stmt,
                                             const std::vector<Value>& params) {
  Table* table = stmt.table;
  const TableDef& def = table->def();

  std::lock_guard<std::mutex> writer(table->writer_mutex());
  TableSnapshot snap = table->Snapshot();
  std::vector<size_t> deleted = MatchingRows(*snap, def, stmt.where, params);
  DmlResult result;
  result.kind = DmlKind::kDelete;
  if (deleted.empty()) {
    return result;
  }
  result.rows_affected = deleted.size();

  // A deleted key row cannot survive elsewhere (keys are unique), so
  // every projection of a deleted row leaves the table.
  std::vector<KeyRowSet> removed_per_key(def.keys().size());
  for (size_t i : deleted) {
    for (size_t k = 0; k < def.keys().size(); ++k) {
      removed_per_key[k].insert(snap->rows[i].Project(def.keys()[k].columns));
    }
  }
  auto next = std::make_shared<TableVersion>(*snap);
  WriteCounts counts;
  next->Remove(std::move(deleted), &counts);
  UNIQOPT_RETURN_NOT_OK(
      CheckNoChildReferences(db_, table, removed_per_key, *next));

  table->CommitVersion(std::move(next));
  PublishWriteCounts(counts);
  db_->BumpVersionOnCommit();
  return result;
}

}  // namespace txn
}  // namespace uniqopt
