#ifndef UNIQOPT_PARSER_PARSER_H_
#define UNIQOPT_PARSER_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "parser/ast.h"

namespace uniqopt {

/// Deepest nesting of parenthesized expressions, NOTs and subqueries a
/// statement may have. The parser recurses once per level, so deeper
/// input is rejected with kInvalidArgument instead of overflowing the
/// stack (SQLite bounds expression depth at the same value).
inline constexpr int kMaxNestingDepth = 1000;

/// Parses one SQL statement (query or CREATE TABLE); trailing `;` is
/// accepted, trailing garbage is an error.
Result<StatementPtr> ParseStatement(std::string_view sql);

/// Parses a query expression (SELECT ... [INTERSECT/EXCEPT ...]).
Result<QueryPtr> ParseQuery(std::string_view sql);

/// Parses a scalar/boolean expression in isolation (used for CHECK
/// constraint construction in tests and fixtures).
Result<AstExprPtr> ParseExpression(std::string_view sql);

}  // namespace uniqopt

#endif  // UNIQOPT_PARSER_PARSER_H_
