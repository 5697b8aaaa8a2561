#ifndef UNIQOPT_CATALOG_TABLE_DEF_H_
#define UNIQOPT_CATALOG_TABLE_DEF_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/schema.h"

namespace uniqopt {

/// Key constraint kind. SQL2 distinguishes them only by nullability:
/// PRIMARY KEY columns are implicitly NOT NULL; UNIQUE (candidate key)
/// columns may be NULL, with NULL treated as one "special value" (§2.1:
/// at most one row may carry NULL in a single-column candidate key).
enum class KeyKind { kPrimary, kUnique };

/// A declared candidate key: the paper's U_i(R).
struct KeyConstraint {
  KeyKind kind = KeyKind::kUnique;
  std::string name;
  /// Column ordinals within the owning table.
  std::vector<size_t> columns;
};

/// An inclusion dependency (FOREIGN KEY): the listed columns of this
/// table reference a candidate key of `ref_table`. The paper's §7 names
/// inclusion dependencies as the enabler of King's join elimination,
/// which `rewrite/` implements.
struct ForeignKeyConstraint {
  std::string name;
  /// Referencing column ordinals within the owning table.
  std::vector<size_t> columns;
  std::string ref_table;
  /// Referenced column names (must form a candidate key of ref_table;
  /// validated when the table is added to a catalog).
  std::vector<std::string> ref_columns;
};

/// A table CHECK constraint (the paper's T_R): a predicate over the
/// table's own columns, bound positionally against the table schema,
/// true-interpreted (a row satisfies the constraint unless the predicate
/// is FALSE — SQL2 CHECK semantics).
struct CheckConstraint {
  std::string name;
  ExprPtr predicate;
  /// Original SQL text when parsed from CREATE TABLE (for display).
  std::string sql_text;
};

/// Definition of a base table: schema plus declared constraints.
class TableDef {
 public:
  TableDef() = default;
  TableDef(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  /// Declares the primary key. PRIMARY KEY columns become NOT NULL.
  Status SetPrimaryKey(std::vector<std::string> column_names);
  /// Declares an additional candidate key (UNIQUE).
  Status AddUniqueKey(std::vector<std::string> column_names);
  /// Declares a UNIQUE candidate key under an explicit name (CREATE
  /// UNIQUE INDEX). Fails if the name or the exact column set is
  /// already taken by a declared key.
  Status AddNamedUniqueKey(std::string key_name,
                           std::vector<std::string> column_names);
  /// Adds a CHECK table constraint over this table's columns.
  void AddCheck(CheckConstraint check) {
    checks_.push_back(std::move(check));
  }
  /// Declares an inclusion dependency; referenced-key validation happens
  /// at catalog registration (the referenced table must already exist).
  Status AddForeignKey(std::vector<std::string> column_names,
                       std::string ref_table,
                       std::vector<std::string> ref_columns);

  const std::vector<KeyConstraint>& keys() const { return keys_; }
  const std::vector<CheckConstraint>& checks() const { return checks_; }
  const std::vector<ForeignKeyConstraint>& foreign_keys() const {
    return foreign_keys_;
  }

  /// The primary key, if declared.
  const KeyConstraint* primary_key() const;

  /// True when the table has at least one declared candidate key —
  /// a precondition of every theorem in the paper.
  bool HasAnyKey() const { return !keys_.empty(); }

  /// Ordinal of `column_name` (case-insensitive), or error.
  Result<size_t> ColumnOrdinal(const std::string& column_name) const;

  /// "CREATE TABLE"-like rendering for diagnostics.
  std::string ToString() const;

 private:
  Status AddKey(KeyKind kind, std::vector<std::string> column_names);

  std::string name_;
  Schema schema_;
  std::vector<KeyConstraint> keys_;
  std::vector<CheckConstraint> checks_;
  std::vector<ForeignKeyConstraint> foreign_keys_;
};

/// A foreign key resolved onto its parent table's declared keys.
struct ResolvedForeignKey {
  /// The parent's ordinal of each of `fk.ref_columns`, in that order.
  std::vector<size_t> ref_ordinals;
  /// Index into the parent's keys() of the key the referenced columns
  /// form, or nullopt when they form no declared key.
  std::optional<size_t> key_index;
  /// The child's referencing columns in that key's column order (empty
  /// without a key), so `child_row.Project(child_columns)` probes it.
  std::vector<size_t> child_columns;
};

/// Resolves `fk`, declared on a child table, onto `parent`. Fails with
/// TableDef::ColumnOrdinal's NotFound when a referenced column does not
/// exist in `parent`.
Result<ResolvedForeignKey> ResolveForeignKey(const ForeignKeyConstraint& fk,
                                             const TableDef& parent);

}  // namespace uniqopt

#endif  // UNIQOPT_CATALOG_TABLE_DEF_H_
