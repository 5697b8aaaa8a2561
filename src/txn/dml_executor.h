#ifndef UNIQOPT_TXN_DML_EXECUTOR_H_
#define UNIQOPT_TXN_DML_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "txn/dml.h"
#include "types/value.h"

namespace uniqopt {
namespace txn {

/// Outcome of one committed (or no-op) DML statement. A statement that
/// commits a new table version bumps Catalog::version() (so the plan
/// cache provably invalidates); a no-op (0-row UPDATE/DELETE) leaves it
/// unchanged.
struct DmlResult {
  DmlKind kind = DmlKind::kInsert;
  size_t rows_affected = 0;

  /// "INSERT 3" / "UPDATE 0" / "CREATE UNIQUE INDEX (12 rows validated)".
  std::string ToString() const;
};

/// Executes DML statements over copy-on-write table versions.
///
/// Transaction contract (single-statement transactions):
///  - one writer per table: the statement holds the table's writer
///    mutex for its whole read-validate-publish cycle;
///  - snapshot isolation for readers: the next version is built off the
///    committed snapshot and published atomically, so concurrent
///    readers only ever observe fully committed states;
///  - atomic rollback: every constraint (arity/type, NOT NULL, CHECK,
///    FOREIGN KEY — including RESTRICT checks against referencing
///    children on UPDATE/DELETE — and key uniqueness under `=!`) is
///    validated against the pending version before publication; any
///    violation aborts the statement with a structured error and the
///    committed version, its rows, and its indexes are untouched —
///    byte-identical, since they were never written;
///  - every commit bumps Catalog::version(), which plan-cache
///    fingerprints mix in, so stale cached plans become unreachable.
class DmlExecutor {
 public:
  explicit DmlExecutor(Database* db) : db_(db) {}

  /// Executes a bound statement. `params[i]` supplies host variable
  /// `stmt.host_vars[i]`.
  Result<DmlResult> Execute(const BoundDml& stmt,
                            const std::vector<Value>& params = {});

  /// Parses, binds, maps named parameters (case-insensitive host
  /// variable names) and executes in one step.
  Result<DmlResult> ExecuteSql(
      std::string_view sql,
      const std::vector<std::pair<std::string, Value>>& named_params = {});

 private:
  Result<DmlResult> ExecuteInsert(const BoundInsert& stmt,
                                  const std::vector<Value>& params);
  Result<DmlResult> ExecuteUpdate(const BoundUpdate& stmt,
                                  const std::vector<Value>& params);
  Result<DmlResult> ExecuteDelete(const BoundDelete& stmt,
                                  const std::vector<Value>& params);

  Database* db_;
};

}  // namespace txn
}  // namespace uniqopt

#endif  // UNIQOPT_TXN_DML_EXECUTOR_H_
