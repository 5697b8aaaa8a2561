#ifndef UNIQOPT_PLAN_BINDER_H_
#define UNIQOPT_PLAN_BINDER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "parser/ast.h"
#include "plan/plan.h"

namespace uniqopt {

/// A host variable (`:NAME`) discovered while binding. Slot i of the
/// parameter vector passed to the executor supplies host_vars[i].
struct HostVariable {
  std::string name;
  TypeId type = TypeId::kInteger;
  bool type_known = false;
};

/// A fully bound query: logical plan plus its host-variable signature.
struct BoundQuery {
  PlanPtr plan;
  std::vector<HostVariable> host_vars;

  /// Convenience for tests: positional parameter slot of `name`.
  Result<size_t> HostVarSlot(const std::string& name) const;
};

/// Translates parse trees into logical plans over a catalog.
///
/// Scoping: correlated subqueries may reference columns of the
/// immediately enclosing query specification (the paper's queries are all
/// of this form); deeper correlation is reported as unsupported.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  /// Binds a query expression (spec or INTERSECT/EXCEPT chain).
  Result<BoundQuery> Bind(const Query& query);

  /// Parses and binds in one step.
  Result<BoundQuery> BindSql(std::string_view sql);

  /// Implementation detail, exposed so DDL binding (BuildTableDef) can
  /// reuse scalar-expression binding for CHECK constraints.
  class Impl;

 private:
  const Catalog* catalog_;
};

/// Builds a TableDef from a parsed CREATE TABLE: constructs the schema,
/// declares keys (PRIMARY KEY columns become NOT NULL) and binds CHECK
/// predicates against the table's own columns. CHECK predicates may not
/// contain host variables or subqueries.
Result<TableDef> BuildTableDef(const CreateTableStmt& stmt);

/// Binds a scalar expression against a single table's schema (qualified
/// by the table name), for DML WHERE and SET clauses. Subqueries and
/// aggregates are rejected; host variables accumulate into *host_vars
/// (which may arrive non-empty — slots are shared across one
/// statement's clauses).
Result<ExprPtr> BindTableScalar(const Catalog* catalog, const TableDef& table,
                                const AstExpr& expr,
                                std::vector<HostVariable>* host_vars);

}  // namespace uniqopt

#endif  // UNIQOPT_PLAN_BINDER_H_
