#include "catalog/table_def.h"

#include <algorithm>

#include "common/string_util.h"

namespace uniqopt {

Status TableDef::AddKey(KeyKind kind, std::vector<std::string> column_names) {
  if (column_names.empty()) {
    return Status::InvalidArgument("key must name at least one column");
  }
  KeyConstraint key;
  key.kind = kind;
  key.name = (kind == KeyKind::kPrimary ? "pk_" : "uq_") + name_;
  for (const std::string& cn : column_names) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, ColumnOrdinal(cn));
    for (size_t existing : key.columns) {
      if (existing == ord) {
        return Status::InvalidArgument("duplicate column in key: " + cn);
      }
    }
    key.columns.push_back(ord);
    key.name += "_" + ToLowerAscii(cn);
  }
  if (kind == KeyKind::kPrimary) {
    for (const KeyConstraint& k : keys_) {
      if (k.kind == KeyKind::kPrimary) {
        return Status::AlreadyExists("table already has a primary key: " +
                                     name_);
      }
    }
    // PRIMARY KEY columns are implicitly NOT NULL (SQL2 §2.1 of the paper).
    std::vector<Column> cols = schema_.columns();
    for (size_t ord : key.columns) cols[ord].nullable = false;
    schema_ = Schema(std::move(cols));
  }
  keys_.push_back(std::move(key));
  return Status::OK();
}

Status TableDef::SetPrimaryKey(std::vector<std::string> column_names) {
  return AddKey(KeyKind::kPrimary, std::move(column_names));
}

Status TableDef::AddUniqueKey(std::vector<std::string> column_names) {
  return AddKey(KeyKind::kUnique, std::move(column_names));
}

Status TableDef::AddNamedUniqueKey(std::string key_name,
                                   std::vector<std::string> column_names) {
  if (column_names.empty()) {
    return Status::InvalidArgument("key must name at least one column");
  }
  KeyConstraint key;
  key.kind = KeyKind::kUnique;
  key.name = std::move(key_name);
  for (const std::string& cn : column_names) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, ColumnOrdinal(cn));
    for (size_t existing : key.columns) {
      if (existing == ord) {
        return Status::InvalidArgument("duplicate column in key: " + cn);
      }
    }
    key.columns.push_back(ord);
  }
  std::vector<size_t> sorted_new = key.columns;
  std::sort(sorted_new.begin(), sorted_new.end());
  for (const KeyConstraint& k : keys_) {
    if (EqualsIgnoreCase(k.name, key.name)) {
      return Status::AlreadyExists("key name already in use: " + key.name);
    }
    std::vector<size_t> sorted_existing = k.columns;
    std::sort(sorted_existing.begin(), sorted_existing.end());
    if (sorted_existing == sorted_new) {
      return Status::AlreadyExists("a key on these columns already exists: " +
                                   k.name);
    }
  }
  keys_.push_back(std::move(key));
  return Status::OK();
}

Status TableDef::AddForeignKey(std::vector<std::string> column_names,
                               std::string ref_table,
                               std::vector<std::string> ref_columns) {
  if (column_names.empty() || column_names.size() != ref_columns.size()) {
    return Status::InvalidArgument(
        "foreign key must list matching referencing/referenced columns");
  }
  ForeignKeyConstraint fk;
  fk.name = "fk_" + name_;
  for (const std::string& cn : column_names) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, ColumnOrdinal(cn));
    fk.columns.push_back(ord);
    fk.name += "_" + ToLowerAscii(cn);
  }
  fk.ref_table = ToUpperAscii(ref_table);
  fk.ref_columns = std::move(ref_columns);
  foreign_keys_.push_back(std::move(fk));
  return Status::OK();
}

const KeyConstraint* TableDef::primary_key() const {
  for (const KeyConstraint& k : keys_) {
    if (k.kind == KeyKind::kPrimary) return &k;
  }
  return nullptr;
}

Result<size_t> TableDef::ColumnOrdinal(const std::string& column_name) const {
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    if (EqualsIgnoreCase(schema_.column(i).name, column_name)) return i;
  }
  return Status::NotFound("no column " + column_name + " in table " + name_);
}

Result<ResolvedForeignKey> ResolveForeignKey(const ForeignKeyConstraint& fk,
                                             const TableDef& parent) {
  ResolvedForeignKey out;
  for (const std::string& rc : fk.ref_columns) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, parent.ColumnOrdinal(rc));
    out.ref_ordinals.push_back(ord);
  }
  std::vector<size_t> sorted = out.ref_ordinals;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<KeyConstraint>& keys = parent.keys();
  for (size_t k = 0; k < keys.size() && !out.key_index.has_value(); ++k) {
    std::vector<size_t> key_columns = keys[k].columns;
    std::sort(key_columns.begin(), key_columns.end());
    if (key_columns == sorted) out.key_index = k;
  }
  if (!out.key_index.has_value()) return out;
  for (size_t parent_col : keys[*out.key_index].columns) {
    size_t j = 0;
    while (out.ref_ordinals[j] != parent_col) ++j;
    out.child_columns.push_back(fk.columns[j]);
  }
  return out;
}

std::string TableDef::ToString() const {
  std::string out = "TABLE " + name_ + " " + schema_.ToString();
  for (const KeyConstraint& k : keys_) {
    out += k.kind == KeyKind::kPrimary ? "\n  PRIMARY KEY (" : "\n  UNIQUE (";
    for (size_t i = 0; i < k.columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema_.column(k.columns[i]).name;
    }
    out += ")";
  }
  for (const ForeignKeyConstraint& fk : foreign_keys_) {
    out += "\n  FOREIGN KEY (";
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema_.column(fk.columns[i]).name;
    }
    out += ") REFERENCES " + fk.ref_table + " (";
    out += Join(fk.ref_columns, ", ");
    out += ")";
  }
  for (const CheckConstraint& c : checks_) {
    out += "\n  CHECK (";
    out += c.sql_text.empty() ? c.predicate->ToString() : c.sql_text;
    out += ")";
  }
  return out;
}

}  // namespace uniqopt
