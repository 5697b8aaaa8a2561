#include "parser/parser.h"

#include <set>

#include "common/string_util.h"
#include "parser/lexer.h"

namespace uniqopt {

namespace {

/// Words that cannot be used as a bare correlation (alias) name.
const std::set<std::string>& ReservedWords() {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "SELECT", "FROM",     "WHERE",  "AND",   "OR",      "NOT",
      "IN",     "BETWEEN",  "IS",     "NULL",  "EXISTS",  "DISTINCT",
      "ALL",    "INTERSECT", "EXCEPT", "UNION", "CREATE",  "TABLE",
      "DROP",   "PRIMARY", "KEY",     "UNIQUE", "CHECK", "TRUE", "FALSE",
      "ORDER",  "GROUP",    "BY",     "HAVING", "AS",
      "INSERT", "INTO",     "VALUES", "UPDATE", "SET", "DELETE",
      "INDEX",  "ON"};
  return *kWords;
}

class Parser {
 public:
  Parser(std::string_view sql, std::vector<Token> tokens)
      : sql_(sql), tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseStatementTop() {
    auto stmt = std::make_unique<Statement>();
    if (PeekKeyword("CREATE")) {
      if (PeekKeyword("UNIQUE", 1) || PeekKeyword("INDEX", 1)) {
        UNIQOPT_ASSIGN_OR_RETURN(stmt->create_index, ParseCreateIndex());
      } else {
        UNIQOPT_ASSIGN_OR_RETURN(stmt->create_table, ParseCreateTable());
      }
    } else if (PeekKeyword("DROP")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->drop_table, ParseDropTable());
    } else if (PeekKeyword("INSERT")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->insert_stmt, ParseInsert());
    } else if (PeekKeyword("UPDATE")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->update_stmt, ParseUpdate());
    } else if (PeekKeyword("DELETE")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->delete_stmt, ParseDelete());
    } else {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->query, ParseQueryExpr());
    }
    UNIQOPT_RETURN_NOT_OK(ExpectEnd());
    return stmt;
  }

  Result<QueryPtr> ParseQueryTop() {
    UNIQOPT_ASSIGN_OR_RETURN(QueryPtr q, ParseQueryExpr());
    UNIQOPT_RETURN_NOT_OK(ExpectEnd());
    return q;
  }

  Result<AstExprPtr> ParseExpressionTop() {
    UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
    UNIQOPT_RETURN_NOT_OK(ExpectEnd());
    return e;
  }

 private:
  // -- Token stream helpers -----------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) return tokens_.back();
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && t.text == kw;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool PeekSymbol(std::string_view sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool ConsumeSymbol(std::string_view sym) {
    if (PeekSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return ErrorHere("expected " + std::string(kw));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!ConsumeSymbol(sym)) {
      return ErrorHere("expected '" + std::string(sym) + "'");
    }
    return Status::OK();
  }
  Status ExpectEnd() {
    ConsumeSymbol(";");
    if (Peek().type != TokenType::kEndOfInput) {
      return ErrorHere("unexpected trailing input");
    }
    return Status::OK();
  }
  Status ErrorHere(std::string msg) const {
    const Token& t = Peek();
    msg += " at offset " + std::to_string(t.offset);
    if (t.type != TokenType::kEndOfInput) {
      msg += " (near '" + (t.original.empty() ? t.text : t.original) + "')";
    } else {
      msg += " (at end of input)";
    }
    return Status::ParseError(std::move(msg));
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected " + std::string(what));
    }
    return Advance().text;
  }

  /// Runs `parse` one nesting level deeper (see kMaxNestingDepth).
  template <typename ParseFn>
  auto Nested(const ParseFn& parse) -> decltype(parse()) {
    if (depth_ >= kMaxNestingDepth) {
      return Status::InvalidArgument(
          "nesting exceeds the limit of " + std::to_string(kMaxNestingDepth) +
          " levels at offset " + std::to_string(Peek().offset));
    }
    ++depth_;
    auto parsed = parse();
    --depth_;
    return parsed;
  }

  // -- Query expressions ---------------------------------------------------
  Result<QueryPtr> ParseQueryExpr() {
    auto q = std::make_unique<Query>();
    UNIQOPT_ASSIGN_OR_RETURN(QuerySpecPtr spec, ParseQuerySpec());
    q->specs.push_back(std::move(spec));
    while (true) {
      SetOpKind op;
      if (ConsumeKeyword("INTERSECT")) {
        op = ConsumeKeyword("ALL") ? SetOpKind::kIntersectAll
                                   : SetOpKind::kIntersect;
      } else if (ConsumeKeyword("EXCEPT")) {
        op = ConsumeKeyword("ALL") ? SetOpKind::kExceptAll
                                   : SetOpKind::kExcept;
      } else if (PeekKeyword("UNION")) {
        return ErrorHere("UNION is outside the supported SQL subset");
      } else {
        break;
      }
      q->ops.push_back(op);
      UNIQOPT_ASSIGN_OR_RETURN(QuerySpecPtr rhs, ParseQuerySpec());
      q->specs.push_back(std::move(rhs));
    }
    return q;
  }

  Result<QuerySpecPtr> ParseQuerySpec() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto spec = std::make_unique<QuerySpec>();
    if (ConsumeKeyword("DISTINCT")) {
      spec->distinct = true;
    } else {
      ConsumeKeyword("ALL");
    }
    // Select list.
    do {
      SelectItem item;
      if (ConsumeSymbol("*")) {
        item.star = true;
      } else if (Peek().type == TokenType::kIdentifier && PeekSymbol(".", 1) &&
                 PeekSymbol("*", 2)) {
        item.star = true;
        item.star_qualifier = Advance().text;
        Advance();  // .
        Advance();  // *
      } else {
        UNIQOPT_ASSIGN_OR_RETURN(item.expr, ParseSelectExpr());
      }
      spec->select_list.push_back(std::move(item));
    } while (ConsumeSymbol(","));
    // FROM.
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    do {
      TableRef ref;
      UNIQOPT_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
      ConsumeKeyword("AS");
      if (Peek().type == TokenType::kIdentifier &&
          ReservedWords().count(Peek().text) == 0) {
        ref.alias = Advance().text;
      } else {
        ref.alias = ref.table_name;
      }
      spec->from.push_back(std::move(ref));
    } while (ConsumeSymbol(","));
    // WHERE.
    if (ConsumeKeyword("WHERE")) {
      UNIQOPT_ASSIGN_OR_RETURN(spec->where, ParseExpr());
    }
    // GROUP BY (§7 extension). Grouping expressions are column refs.
    if (ConsumeKeyword("GROUP")) {
      UNIQOPT_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr col, ParsePrimary());
        if (col->kind != AstExprKind::kColumnRef) {
          return ErrorHere("GROUP BY supports only column references");
        }
        spec->group_by.push_back(std::move(col));
      } while (ConsumeSymbol(","));
    }
    if (PeekKeyword("HAVING") || PeekKeyword("ORDER")) {
      return ErrorHere(
          "HAVING / ORDER BY are outside the supported subset");
    }
    return spec;
  }

  /// A select-list entry: an aggregate call or a plain primary.
  Result<AstExprPtr> ParseSelectExpr() {
    static const std::pair<const char*, AstAggFunc> kAggs[] = {
        {"COUNT", AstAggFunc::kCount}, {"SUM", AstAggFunc::kSum},
        {"MIN", AstAggFunc::kMin},     {"MAX", AstAggFunc::kMax},
        {"AVG", AstAggFunc::kAvg}};
    for (const auto& [kw, func] : kAggs) {
      if (PeekKeyword(kw) && PeekSymbol("(", 1)) {
        auto node = std::make_unique<AstExpr>();
        node->offset = Peek().offset;
        node->kind = AstExprKind::kAggregate;
        node->agg_func = func;
        Advance();  // function name
        Advance();  // (
        if (func == AstAggFunc::kCount && ConsumeSymbol("*")) {
          node->agg_func = AstAggFunc::kCountStar;
        } else {
          UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr arg, ParsePrimary());
          if (arg->kind != AstExprKind::kColumnRef) {
            return ErrorHere("aggregate argument must be a column");
          }
          node->children.push_back(std::move(arg));
        }
        UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
        return node;
      }
    }
    return ParsePrimary();
  }

  // -- Expressions ----------------------------------------------------------
  Result<AstExprPtr> ParseExpr() {
    return Nested([&] { return ParseOr(); });
  }

  Result<AstExprPtr> ParseOr() {
    UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
    if (!PeekKeyword("OR")) return left;
    auto node = std::make_unique<AstExpr>();
    node->kind = AstExprKind::kOr;
    node->offset = left->offset;
    node->children.push_back(std::move(left));
    while (ConsumeKeyword("OR")) {
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<AstExprPtr> ParseAnd() {
    UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
    if (!PeekKeyword("AND")) return left;
    auto node = std::make_unique<AstExpr>();
    node->kind = AstExprKind::kAnd;
    node->offset = left->offset;
    node->children.push_back(std::move(left));
    while (ConsumeKeyword("AND")) {
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<AstExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr child,
                               Nested([&] { return ParseNot(); }));
      // NOT EXISTS folds into the EXISTS node.
      if (child->kind == AstExprKind::kExists) {
        child->negated = !child->negated;
        return child;
      }
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExprKind::kNot;
      node->offset = child->offset;
      node->children.push_back(std::move(child));
      return node;
    }
    return ParsePredicate();
  }

  Result<AstExprPtr> ParsePredicate() {
    if (PeekKeyword("EXISTS")) {
      auto node = std::make_unique<AstExpr>();
      node->offset = Peek().offset;
      Advance();
      node->kind = AstExprKind::kExists;
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
      UNIQOPT_ASSIGN_OR_RETURN(node->subquery,
                               Nested([&] { return ParseQuerySpec(); }));
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return node;
    }
    UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr left, ParsePrimary());
    // Comparison?
    for (const auto& [sym, op] :
         {std::pair<const char*, CompareOp>{"=", CompareOp::kEq},
          {"<>", CompareOp::kNe},
          {"<=", CompareOp::kLe},
          {">=", CompareOp::kGe},
          {"<", CompareOp::kLt},
          {">", CompareOp::kGt}}) {
      if (ConsumeSymbol(sym)) {
        auto node = std::make_unique<AstExpr>();
        node->kind = AstExprKind::kCompare;
        node->op = op;
        node->offset = left->offset;
        node->children.push_back(std::move(left));
        UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr rhs, ParsePrimary());
        node->children.push_back(std::move(rhs));
        return node;
      }
    }
    // IS [NOT] NULL.
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      UNIQOPT_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExprKind::kIsNull;
      node->negated = negated;
      node->offset = left->offset;
      node->children.push_back(std::move(left));
      return node;
    }
    bool negated = false;
    if (PeekKeyword("NOT") &&
        (PeekKeyword("BETWEEN", 1) || PeekKeyword("IN", 1))) {
      Advance();
      negated = true;
    }
    // [NOT] BETWEEN a AND b.
    if (ConsumeKeyword("BETWEEN")) {
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExprKind::kBetween;
      node->negated = negated;
      node->offset = left->offset;
      node->children.push_back(std::move(left));
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr low, ParsePrimary());
      node->children.push_back(std::move(low));
      UNIQOPT_RETURN_NOT_OK(ExpectKeyword("AND"));
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr high, ParsePrimary());
      node->children.push_back(std::move(high));
      return node;
    }
    // [NOT] IN (...).
    if (ConsumeKeyword("IN")) {
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
      if (PeekKeyword("SELECT")) {
        auto node = std::make_unique<AstExpr>();
        node->kind = AstExprKind::kInSubquery;
        node->negated = negated;
        node->offset = left->offset;
        node->children.push_back(std::move(left));
        UNIQOPT_ASSIGN_OR_RETURN(node->subquery,
                                 Nested([&] { return ParseQuerySpec(); }));
        UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
        return node;
      }
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExprKind::kInList;
      node->negated = negated;
      node->offset = left->offset;
      node->children.push_back(std::move(left));
      do {
        UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr item, ParsePrimary());
        node->children.push_back(std::move(item));
      } while (ConsumeSymbol(","));
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return node;
    }
    return left;
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& t = Peek();
    auto node = std::make_unique<AstExpr>();
    node->offset = t.offset;
    switch (t.type) {
      case TokenType::kInteger:
        node->kind = AstExprKind::kLiteral;
        node->literal = Value::Integer(std::stoll(t.text));
        Advance();
        return node;
      case TokenType::kDouble:
        node->kind = AstExprKind::kLiteral;
        node->literal = Value::Double(std::stod(t.text));
        Advance();
        return node;
      case TokenType::kString:
        node->kind = AstExprKind::kLiteral;
        node->literal = Value::String(t.text);
        Advance();
        return node;
      case TokenType::kHostVar:
        node->kind = AstExprKind::kHostVar;
        node->name = t.text;
        Advance();
        return node;
      case TokenType::kIdentifier: {
        if (t.text == "TRUE" || t.text == "FALSE") {
          node->kind = AstExprKind::kLiteral;
          node->literal = Value::Boolean(t.text == "TRUE");
          Advance();
          return node;
        }
        if (t.text == "NULL") {
          node->kind = AstExprKind::kLiteral;
          node->literal = Value::Null(TypeId::kInteger);
          Advance();
          return node;
        }
        if (ReservedWords().count(t.text) > 0) {
          return ErrorHere("unexpected keyword in expression");
        }
        node->kind = AstExprKind::kColumnRef;
        node->name = Advance().text;
        if (PeekSymbol(".")) {
          Advance();
          node->qualifier = std::move(node->name);
          UNIQOPT_ASSIGN_OR_RETURN(node->name,
                                   ExpectIdentifier("column name"));
        }
        return node;
      }
      case TokenType::kSymbol:
        if (t.text == "(") {
          Advance();
          UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
          UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        break;
      default:
        break;
    }
    return ErrorHere("expected expression");
  }

  // -- DML ------------------------------------------------------------------

  /// A DML scalar: ParsePrimary plus a leading unary minus on numeric
  /// literals (queries never needed negatives; `VALUES (-1)` does).
  Result<AstExprPtr> ParseDmlScalar() {
    if (PeekSymbol("-") && (Peek(1).type == TokenType::kInteger ||
                            Peek(1).type == TokenType::kDouble)) {
      size_t offset = Peek().offset;
      Advance();
      const Token& t = Peek();
      auto node = std::make_unique<AstExpr>();
      node->offset = offset;
      node->kind = AstExprKind::kLiteral;
      node->literal = t.type == TokenType::kInteger
                          ? Value::Integer(-std::stoll(t.text))
                          : Value::Double(-std::stod(t.text));
      Advance();
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    if (PeekSymbol("(")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->columns, ParseColumnNameList());
    }
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    do {
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<AstExprPtr> row;
      do {
        UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr value, ParseDmlScalar());
        row.push_back(std::move(value));
      } while (ConsumeSymbol(","));
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    return stmt;
  }

  Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("SET"));
    do {
      UNIQOPT_ASSIGN_OR_RETURN(std::string column,
                               ExpectIdentifier("column name"));
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol("="));
      UNIQOPT_ASSIGN_OR_RETURN(AstExprPtr value, ParseDmlScalar());
      stmt->assignments.emplace_back(std::move(column), std::move(value));
    } while (ConsumeSymbol(","));
    if (ConsumeKeyword("WHERE")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    if (ConsumeKeyword("WHERE")) {
      UNIQOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  // -- CREATE UNIQUE INDEX --------------------------------------------------
  Result<std::unique_ptr<CreateIndexStmt>> ParseCreateIndex() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    if (PeekKeyword("INDEX")) {
      return ErrorHere(
          "only CREATE UNIQUE INDEX is supported (a non-unique index "
          "declares nothing the optimizer can exploit)");
    }
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("UNIQUE"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("INDEX"));
    auto stmt = std::make_unique<CreateIndexStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->index_name,
                             ExpectIdentifier("index name"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("ON"));
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    UNIQOPT_ASSIGN_OR_RETURN(stmt->columns, ParseColumnNameList());
    return stmt;
  }

  // -- DROP TABLE -----------------------------------------------------------
  Result<std::unique_ptr<DropTableStmt>> ParseDropTable() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("DROP"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    return stmt;
  }

  // -- CREATE TABLE ---------------------------------------------------------
  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    UNIQOPT_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    UNIQOPT_ASSIGN_OR_RETURN(stmt->table_name,
                             ExpectIdentifier("table name"));
    UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      if (PeekKeyword("PRIMARY")) {
        Advance();
        UNIQOPT_RETURN_NOT_OK(ExpectKeyword("KEY"));
        if (!stmt->primary_key.empty()) {
          return ErrorHere("duplicate PRIMARY KEY clause");
        }
        UNIQOPT_ASSIGN_OR_RETURN(stmt->primary_key, ParseColumnNameList());
        continue;
      }
      if (PeekKeyword("UNIQUE")) {
        Advance();
        UNIQOPT_ASSIGN_OR_RETURN(std::vector<std::string> cols,
                                 ParseColumnNameList());
        stmt->unique_keys.push_back(std::move(cols));
        continue;
      }
      if (PeekKeyword("FOREIGN")) {
        Advance();
        UNIQOPT_RETURN_NOT_OK(ExpectKeyword("KEY"));
        AstForeignKey fk;
        UNIQOPT_ASSIGN_OR_RETURN(fk.columns, ParseColumnNameList());
        UNIQOPT_RETURN_NOT_OK(ExpectKeyword("REFERENCES"));
        UNIQOPT_ASSIGN_OR_RETURN(fk.ref_table,
                                 ExpectIdentifier("referenced table"));
        UNIQOPT_ASSIGN_OR_RETURN(fk.ref_columns, ParseColumnNameList());
        stmt->foreign_keys.push_back(std::move(fk));
        continue;
      }
      if (PeekKeyword("CHECK")) {
        Advance();
        UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
        size_t start = Peek().offset;
        AstCheck check;
        UNIQOPT_ASSIGN_OR_RETURN(check.predicate, ParseExpr());
        size_t end = Peek().offset;
        UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
        check.sql_text = std::string(
            StripAsciiWhitespace(sql_.substr(start, end - start)));
        stmt->checks.push_back(std::move(check));
        continue;
      }
      // Column definition.
      AstColumnDef col;
      UNIQOPT_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      UNIQOPT_ASSIGN_OR_RETURN(col.type, ParseType());
      while (true) {
        if (PeekKeyword("NOT") && PeekKeyword("NULL", 1)) {
          Advance();
          Advance();
          col.not_null = true;
          continue;
        }
        // Column-level `REFERENCES T (C)` shorthand.
        if (PeekKeyword("REFERENCES")) {
          Advance();
          AstForeignKey fk;
          fk.columns = {col.name};
          UNIQOPT_ASSIGN_OR_RETURN(fk.ref_table,
                                   ExpectIdentifier("referenced table"));
          UNIQOPT_ASSIGN_OR_RETURN(fk.ref_columns, ParseColumnNameList());
          stmt->foreign_keys.push_back(std::move(fk));
          continue;
        }
        break;
      }
      stmt->columns.push_back(std::move(col));
    } while (ConsumeSymbol(","));
    UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
    return stmt;
  }

  Result<std::vector<std::string>> ParseColumnNameList() {
    UNIQOPT_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<std::string> names;
    do {
      UNIQOPT_ASSIGN_OR_RETURN(std::string name,
                               ExpectIdentifier("column name"));
      names.push_back(std::move(name));
    } while (ConsumeSymbol(","));
    UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
    return names;
  }

  Result<TypeId> ParseType() {
    UNIQOPT_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("type name"));
    TypeId type;
    if (name == "INTEGER" || name == "INT" || name == "SMALLINT" ||
        name == "BIGINT") {
      type = TypeId::kInteger;
    } else if (name == "DOUBLE" || name == "FLOAT" || name == "REAL" ||
               name == "DECIMAL" || name == "NUMERIC") {
      type = TypeId::kDouble;
    } else if (name == "VARCHAR" || name == "CHAR" || name == "CHARACTER" ||
               name == "TEXT") {
      type = TypeId::kString;
    } else if (name == "BOOLEAN" || name == "BOOL") {
      type = TypeId::kBoolean;
    } else {
      return ErrorHere("unknown type " + name);
    }
    // Optional length, e.g. VARCHAR(30) — accepted and ignored.
    if (ConsumeSymbol("(")) {
      if (Peek().type != TokenType::kInteger) {
        return ErrorHere("expected type length");
      }
      Advance();
      if (ConsumeSymbol(",")) {
        if (Peek().type != TokenType::kInteger) {
          return ErrorHere("expected type scale");
        }
        Advance();
      }
      UNIQOPT_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    return type;
  }

  std::string_view sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< nesting levels entered (see Nested)
};

}  // namespace

Result<StatementPtr> ParseStatement(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser p(sql, std::move(tokens));
  return p.ParseStatementTop();
}

Result<QueryPtr> ParseQuery(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser p(sql, std::move(tokens));
  return p.ParseQueryTop();
}

Result<AstExprPtr> ParseExpression(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser p(sql, std::move(tokens));
  return p.ParseExpressionTop();
}

}  // namespace uniqopt
