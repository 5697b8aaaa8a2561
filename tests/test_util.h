#ifndef UNIQOPT_TESTS_TEST_UTIL_H_
#define UNIQOPT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/planner.h"
#include "plan/binder.h"
#include "storage/table.h"

namespace uniqopt {

/// gtest helpers for Status/Result.
#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::uniqopt::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::uniqopt::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                    \
  UNIQOPT_ASSIGN_OR_ABORT_IMPL(                             \
      UNIQOPT_ASSIGN_OR_RETURN_CONCAT(_test_result_, __LINE__), lhs, rexpr)

#define UNIQOPT_ASSIGN_OR_ABORT_IMPL(tmp, lhs, rexpr)       \
  auto tmp = (rexpr);                                       \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();         \
  lhs = std::move(tmp).ValueOrDie()

/// Named host-variable bindings for running parameterized queries.
using ParamBindings = std::vector<std::pair<std::string, Value>>;

/// Parses, binds, lowers and executes `sql` against `db`.
inline Result<std::vector<Row>> RunSql(const Database& db,
                                       const std::string& sql,
                                       const ParamBindings& params = {},
                                       const PhysicalOptions& physical = {},
                                       ExecStats* stats = nullptr) {
  Binder binder(&db.catalog());
  UNIQOPT_ASSIGN_OR_RETURN(BoundQuery bound, binder.BindSql(sql));
  ExecContext ctx;
  ctx.params.resize(bound.host_vars.size());
  for (const auto& [name, value] : params) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t slot, bound.HostVarSlot(name));
    ctx.params[slot] = value;
  }
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           ExecutePlan(bound.plan, db, &ctx, physical));
  if (stats != nullptr) *stats = ctx.stats;
  return rows;
}

/// Multiset equality of row collections under `=!` value identity.
inline bool MultisetEquals(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].NullSafeEquals(b[i])) return false;
  }
  return true;
}

/// True if the collection contains two `=!`-equal rows.
inline bool HasDuplicates(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].NullSafeEquals(rows[i - 1])) return true;
  }
  return false;
}

/// Do two schemas name and type their columns alike? A rewrite must not
/// change what a result's header says.
inline ::testing::AssertionResult SameColumnNamesAndTypes(const Schema& a,
                                                          const Schema& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << a.num_columns() << " vs " << b.num_columns() << " columns";
  }
  for (size_t i = 0; i < a.num_columns(); ++i) {
    const Column& x = a.column(i);
    const Column& y = b.column(i);
    if (x.QualifiedName() != y.QualifiedName() || x.type != y.type) {
      return ::testing::AssertionFailure()
             << "column " << i << ": " << x.QualifiedName() << " "
             << TypeIdToString(x.type) << " vs " << y.QualifiedName() << " "
             << TypeIdToString(y.type);
    }
  }
  return ::testing::AssertionSuccess();
}

inline std::string RowsToString(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

/// The operator lines of an EXPLAIN ANALYZE report (its execution
/// profile section), without the logical plans printed above them.
inline std::string ProfileSection(const std::string& report) {
  size_t begin = report.find("-- execution profile --");
  size_t end = report.find("-- executor stats --");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "";
  }
  return report.substr(begin, end - begin);
}

/// `SELECT DISTINCT P1.PNAME` over `n` PARTS tables chained on SNO.
/// PARTS has two candidate keys, so Key(R) ⊕ Key(S) doubles the
/// product's derived keys with every table; the DISTINCT is required.
inline std::string PartsSelfJoinSql(int n) {
  std::string from = "PARTS P1";
  std::string where;
  for (int i = 2; i <= n; ++i) {
    const std::string cur = std::to_string(i);
    from.append(", PARTS P").append(cur);
    where.append(i > 2 ? " AND P" : " WHERE P")
        .append(std::to_string(i - 1))
        .append(".SNO = P")
        .append(cur)
        .append(".SNO");
  }
  return "SELECT DISTINCT P1.PNAME FROM " + from + where;
}

}  // namespace uniqopt

#endif  // UNIQOPT_TESTS_TEST_UTIL_H_
