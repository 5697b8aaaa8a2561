#include <string>

#include <gtest/gtest.h>

#include "parser/lexer.h"
#include "parser/parser.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT s.sno, 42, 3.5, 'RED' FROM t WHERE a <> :HV");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "SELECT");  // keywords fold to upper case
  EXPECT_EQ(t[1].text, "S");
  EXPECT_EQ(t[2].text, ".");
  EXPECT_EQ(t[3].text, "SNO");
  EXPECT_EQ(t[5].type, TokenType::kInteger);
  EXPECT_EQ(t[7].type, TokenType::kDouble);
  EXPECT_EQ(t[9].type, TokenType::kString);
  EXPECT_EQ(t[9].text, "RED");  // content without quotes
  EXPECT_EQ(t.back().type, TokenType::kEndOfInput);
}

TEST(LexerTest, HostVariable) {
  auto tokens = Tokenize(":SUPPLIER-NO");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kHostVar);
  EXPECT_EQ((*tokens)[0].text, "SUPPLIER-NO");
}

TEST(LexerTest, QuoteEscaping) {
  auto tokens = Tokenize("'O''Brien'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "O'Brien");
}

TEST(LexerTest, CommentsAndDashIdentifiers) {
  auto tokens = Tokenize("OEM-PNO -- trailing comment\n, X");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "OEM-PNO");
  EXPECT_EQ((*tokens)[1].text, ",");
  EXPECT_EQ((*tokens)[2].text, "X");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize(": 5").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto q = ParseQuery(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE((*q)->IsSimpleSpec());
  const QuerySpec& spec = *(*q)->specs[0];
  EXPECT_TRUE(spec.distinct);
  ASSERT_EQ(spec.select_list.size(), 2u);
  ASSERT_EQ(spec.from.size(), 2u);
  EXPECT_EQ(spec.from[0].table_name, "SUPPLIER");
  EXPECT_EQ(spec.from[0].alias, "S");
  ASSERT_NE(spec.where, nullptr);
  EXPECT_EQ(spec.where->kind, AstExprKind::kAnd);
}

TEST(ParserTest, SelectStar) {
  auto q = ParseQuery("SELECT * FROM SUPPLIER");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->specs[0]->select_list[0].star);
  auto q2 = ParseQuery("SELECT S.* FROM SUPPLIER S");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->specs[0]->select_list[0].star_qualifier, "S");
}

TEST(ParserTest, ExistsSubquery) {
  auto q = ParseQuery(
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const QuerySpec& spec = *(*q)->specs[0];
  EXPECT_FALSE(spec.distinct);
  ASSERT_EQ(spec.where->kind, AstExprKind::kExists);
  EXPECT_FALSE(spec.where->negated);
  ASSERT_NE(spec.where->subquery, nullptr);
}

TEST(ParserTest, NotExistsFoldsNegation) {
  auto q = ParseQuery(
      "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS "
      "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->specs[0]->where->kind, AstExprKind::kExists);
  EXPECT_TRUE((*q)->specs[0]->where->negated);
}

TEST(ParserTest, BetweenInIsNull) {
  auto q = ParseQuery(
      "SELECT SNO FROM SUPPLIER WHERE SNO BETWEEN 1 AND 499 "
      "AND SCITY IN ('Chicago', 'Toronto') AND SNAME IS NOT NULL "
      "AND BUDGET NOT BETWEEN 5 AND 6");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstExpr& where = *(*q)->specs[0]->where;
  ASSERT_EQ(where.kind, AstExprKind::kAnd);
  ASSERT_EQ(where.children.size(), 4u);
  EXPECT_EQ(where.children[0]->kind, AstExprKind::kBetween);
  EXPECT_EQ(where.children[1]->kind, AstExprKind::kInList);
  EXPECT_EQ(where.children[2]->kind, AstExprKind::kIsNull);
  EXPECT_TRUE(where.children[2]->negated);
  EXPECT_TRUE(where.children[3]->negated);
}

TEST(ParserTest, IntersectExceptChain) {
  auto q = ParseQuery(
      "SELECT SNO FROM SUPPLIER INTERSECT ALL SELECT SNO FROM PARTS "
      "EXCEPT SELECT SNO FROM AGENTS");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->specs.size(), 3u);
  ASSERT_EQ((*q)->ops.size(), 2u);
  EXPECT_EQ((*q)->ops[0], SetOpKind::kIntersectAll);
  EXPECT_EQ((*q)->ops[1], SetOpKind::kExcept);
}

TEST(ParserTest, InSubquery) {
  auto q = ParseQuery(
      "SELECT SNO FROM SUPPLIER WHERE SNO IN (SELECT SNO FROM PARTS)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->specs[0]->where->kind, AstExprKind::kInSubquery);
}

TEST(ParserTest, CreateTable) {
  auto s = ParseStatement(
      "CREATE TABLE PARTS ("
      " SNO INTEGER NOT NULL, PNO INTEGER NOT NULL, PNAME VARCHAR(30),"
      " OEM_PNO INTEGER, COLOR VARCHAR(10),"
      " PRIMARY KEY (SNO, PNO), UNIQUE (OEM_PNO),"
      " CHECK (SNO BETWEEN 1 AND 499))");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_NE((*s)->create_table, nullptr);
  const CreateTableStmt& ct = *(*s)->create_table;
  EXPECT_EQ(ct.table_name, "PARTS");
  EXPECT_EQ(ct.columns.size(), 5u);
  EXPECT_EQ(ct.primary_key, (std::vector<std::string>{"SNO", "PNO"}));
  ASSERT_EQ(ct.unique_keys.size(), 1u);
  ASSERT_EQ(ct.checks.size(), 1u);
  EXPECT_EQ(ct.checks[0].sql_text, "SNO BETWEEN 1 AND 499");
}

TEST(ParserTest, Unsupported) {
  EXPECT_FALSE(ParseQuery("SELECT A FROM T GROUP BY A HAVING A > 1").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT A FROM T UNION SELECT A FROM U").ok());
  EXPECT_FALSE(ParseQuery("SELECT FROM T").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM T WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM T trailing garbage ,").ok());
}

TEST(ParserTest, RoundTripToString) {
  const char* sql =
      "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = :X";
  auto q = ParseQuery(sql);
  ASSERT_TRUE(q.ok());
  // Re-parse the printed form; it must parse to the same shape.
  auto q2 = ParseQuery((*q)->ToString());
  ASSERT_TRUE(q2.ok()) << (*q)->ToString();
  EXPECT_EQ((*q)->ToString(), (*q2)->ToString());
}

TEST(ParserTest, ParseExpressionStandalone) {
  auto e = ParseExpression("BUDGET > 0 OR STATUS = 'Inactive'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, AstExprKind::kOr);
}

std::string Repeat(const std::string& piece, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

/// A query whose WHERE clause is nested `levels` deep: the clause itself
/// is the first level and each parenthesis adds one.
std::string NestedWhere(int levels) {
  return "SELECT SNO FROM SUPPLIER WHERE " + Repeat("(", levels - 1) +
         "SNO = 1" + Repeat(")", levels - 1);
}

TEST(ParserTest, NestingPastTheLimitIsAnError) {
  const std::string parens = NestedWhere(20000);
  const std::string nots =
      "SELECT SNO FROM SUPPLIER WHERE " + Repeat("NOT ", 20000) + "SNO = 1";
  const std::string subqueries =
      "SELECT SNO FROM SUPPLIER WHERE " +
      Repeat("EXISTS (SELECT SNO FROM PARTS WHERE ", 20000) + "PNO = 1" +
      Repeat(")", 20000);
  for (const std::string& sql :
       {parens, nots, subqueries, NestedWhere(kMaxNestingDepth + 1)}) {
    auto parsed = ParseQuery(sql);
    ASSERT_FALSE(parsed.ok()) << sql.substr(0, 80);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("limit of 1000 levels"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParserTest, QueryAtTheNestingLimitPrepares) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK(optimizer.Prepare(NestedWhere(kMaxNestingDepth)).status());
}

}  // namespace
}  // namespace uniqopt
