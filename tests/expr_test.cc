#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "expr/equality.h"
#include "expr/expr.h"
#include "expr/normalize.h"
#include "expr/predicate_program.h"

namespace uniqopt {
namespace {

ExprPtr Col(size_t i, TypeId type = TypeId::kInteger) {
  return Expr::ColumnRef(i, "c" + std::to_string(i), type);
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kEq, std::move(a), std::move(b));
}

TEST(ExprTest, EvaluateComparisons) {
  Row row({Value::Integer(5), Value::Integer(7),
           Value::Null(TypeId::kInteger)});
  std::vector<Value> params;
  ExprPtr lt = Expr::Compare(CompareOp::kLt, Col(0), Col(1));
  EXPECT_EQ(lt->EvaluatePredicate(row, params), Tribool::kTrue);
  ExprPtr eq_null = Eq(Col(0), Col(2));
  EXPECT_EQ(eq_null->EvaluatePredicate(row, params), Tribool::kUnknown);
  ExprPtr isnull = Expr::IsNull(Col(2));
  EXPECT_EQ(isnull->EvaluatePredicate(row, params), Tribool::kTrue);
  ExprPtr isnotnull = Expr::IsNotNull(Col(2));
  EXPECT_EQ(isnotnull->EvaluatePredicate(row, params), Tribool::kFalse);
}

TEST(ExprTest, HostVariableEvaluation) {
  Row row({Value::Integer(5)});
  std::vector<Value> params = {Value::Integer(5)};
  ExprPtr eq = Eq(Col(0), Expr::HostVar(0, "X", TypeId::kInteger));
  EXPECT_EQ(eq->EvaluatePredicate(row, params), Tribool::kTrue);
  params[0] = Value::Null(TypeId::kInteger);
  EXPECT_EQ(eq->EvaluatePredicate(row, params), Tribool::kUnknown);
}

TEST(ExprTest, AndOrFlattenAndSimplify) {
  ExprPtr a = Eq(Col(0), Expr::Literal(Value::Integer(1)));
  ExprPtr b = Eq(Col(1), Expr::Literal(Value::Integer(2)));
  // TRUE is dropped from AND; nesting flattens.
  ExprPtr nested = Expr::MakeAnd({Expr::MakeAnd({a, b}), TrueLiteral()});
  EXPECT_EQ(nested->kind(), ExprKind::kAnd);
  EXPECT_EQ(nested->num_children(), 2u);
  // Single-child AND collapses.
  EXPECT_EQ(Expr::MakeAnd({a})->kind(), ExprKind::kComparison);
  // Empty AND is TRUE; empty OR is FALSE.
  EXPECT_TRUE(Expr::MakeAnd({})->IsTrueLiteral());
  EXPECT_TRUE(Expr::MakeOr({})->IsFalseLiteral());
}

TEST(ExprTest, ShortCircuitKleene) {
  // FALSE AND UNKNOWN = FALSE; TRUE OR UNKNOWN = TRUE.
  Row row({Value::Null(TypeId::kBoolean)});
  std::vector<Value> params;
  ExprPtr unknown = Col(0, TypeId::kBoolean);
  EXPECT_EQ(Expr::MakeAnd({FalseLiteral(), unknown})
                ->EvaluatePredicate(row, params),
            Tribool::kFalse);
  EXPECT_EQ(Expr::MakeOr({TrueLiteral(), unknown})
                ->EvaluatePredicate(row, params),
            Tribool::kTrue);
  EXPECT_EQ(Expr::MakeAnd({TrueLiteral(), unknown})
                ->EvaluatePredicate(row, params),
            Tribool::kUnknown);
}

TEST(NormalizeTest, NnfPushesNegationIntoComparisons) {
  ExprPtr expr = Expr::MakeNot(Eq(Col(0), Col(1)));
  ExprPtr nnf = ToNnf(expr);
  ASSERT_EQ(nnf->kind(), ExprKind::kComparison);
  EXPECT_EQ(nnf->compare_op(), CompareOp::kNe);
  // Double negation cancels.
  ExprPtr dbl = ToNnf(Expr::MakeNot(Expr::MakeNot(Eq(Col(0), Col(1)))));
  EXPECT_EQ(dbl->compare_op(), CompareOp::kEq);
  // De Morgan.
  ExprPtr dm = ToNnf(Expr::MakeNot(
      Expr::MakeAnd({Eq(Col(0), Col(1)), Expr::IsNull(Col(2))})));
  ASSERT_EQ(dm->kind(), ExprKind::kOr);
  EXPECT_EQ(dm->child(0)->compare_op(), CompareOp::kNe);
  EXPECT_EQ(dm->child(1)->kind(), ExprKind::kIsNotNull);
}

TEST(NormalizeTest, NnfPreservesThreeValuedSemantics) {
  // ¬(a = b) ⇔ a <> b in 3VL: both are UNKNOWN when an operand is NULL.
  Row null_row({Value::Null(TypeId::kInteger), Value::Integer(1)});
  Row eq_row({Value::Integer(1), Value::Integer(1)});
  Row ne_row({Value::Integer(1), Value::Integer(2)});
  std::vector<Value> params;
  ExprPtr original = Expr::MakeNot(Eq(Col(0), Col(1)));
  ExprPtr nnf = ToNnf(original);
  for (const Row& row : {null_row, eq_row, ne_row}) {
    EXPECT_EQ(original->EvaluatePredicate(row, params),
              nnf->EvaluatePredicate(row, params));
  }
}

TEST(NormalizeTest, CnfDistributes) {
  // a OR (b AND c)  ⇒  (a OR b) AND (a OR c).
  ExprPtr a = Eq(Col(0), Expr::Literal(Value::Integer(1)));
  ExprPtr b = Eq(Col(1), Expr::Literal(Value::Integer(2)));
  ExprPtr c = Eq(Col(2), Expr::Literal(Value::Integer(3)));
  auto cnf = ToCnf(Expr::MakeOr({a, Expr::MakeAnd({b, c})}));
  ASSERT_TRUE(cnf.ok());
  ASSERT_EQ((*cnf)->kind(), ExprKind::kAnd);
  EXPECT_EQ((*cnf)->num_children(), 2u);
  for (const ExprPtr& clause : (*cnf)->children()) {
    EXPECT_EQ(clause->kind(), ExprKind::kOr);
  }
}

TEST(NormalizeTest, DnfDistributes) {
  // (a OR b) AND c  ⇒  (a AND c) OR (b AND c).
  ExprPtr a = Eq(Col(0), Expr::Literal(Value::Integer(1)));
  ExprPtr b = Eq(Col(1), Expr::Literal(Value::Integer(2)));
  ExprPtr c = Eq(Col(2), Expr::Literal(Value::Integer(3)));
  auto dnf = ToDnf(Expr::MakeAnd({Expr::MakeOr({a, b}), c}));
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ((*dnf)->kind(), ExprKind::kOr);
  EXPECT_EQ((*dnf)->num_children(), 2u);
}

TEST(NormalizeTest, BudgetGuardsAgainstBlowup) {
  // (a1 OR b1) AND (a2 OR b2) AND ... has 2^n DNF terms.
  std::vector<ExprPtr> conjuncts;
  for (size_t i = 0; i < 40; ++i) {
    conjuncts.push_back(Expr::MakeOr(
        {Eq(Col(2 * i), Expr::Literal(Value::Integer(1))),
         Eq(Col(2 * i + 1), Expr::Literal(Value::Integer(2)))}));
  }
  auto dnf = ToDnf(Expr::MakeAnd(std::move(conjuncts)), /*budget=*/1024);
  ASSERT_FALSE(dnf.ok());
  EXPECT_EQ(dnf.status().code(), StatusCode::kLimitExceeded);
}

TEST(NormalizeTest, RoundTripPreservesTruthTables) {
  // Exhaustively check CNF/DNF equivalence over all boolean assignments
  // (including NULL) of three columns.
  ExprPtr a = Eq(Col(0), Expr::Literal(Value::Integer(1)));
  ExprPtr b = Expr::IsNull(Col(1));
  ExprPtr c = Expr::Compare(CompareOp::kLt, Col(2),
                            Expr::Literal(Value::Integer(5)));
  ExprPtr expr = Expr::MakeOr(
      {Expr::MakeAnd({a, Expr::MakeNot(b)}), Expr::MakeNot(c)});
  auto cnf = ToCnf(expr);
  auto dnf = ToDnf(expr);
  ASSERT_TRUE(cnf.ok());
  ASSERT_TRUE(dnf.ok());
  std::vector<Value> params;
  std::vector<Value> domain = {Value::Integer(1), Value::Integer(5),
                               Value::Null(TypeId::kInteger)};
  for (const Value& v0 : domain) {
    for (const Value& v1 : domain) {
      for (const Value& v2 : domain) {
        Row row({v0, v1, v2});
        Tribool expected = expr->EvaluatePredicate(row, params);
        EXPECT_EQ((*cnf)->EvaluatePredicate(row, params), expected);
        EXPECT_EQ((*dnf)->EvaluatePredicate(row, params), expected);
      }
    }
  }
}

TEST(EqualityTest, ClassifiesAtoms) {
  EqualityAtom t1 = ClassifyAtom(Eq(Col(3), Expr::Literal(Value::Integer(7))));
  EXPECT_EQ(t1.type, AtomType::kType1ColumnConstant);
  EXPECT_EQ(t1.column, 3u);
  ASSERT_TRUE(t1.constant.has_value());

  // Reversed operand order normalizes.
  EqualityAtom rev =
      ClassifyAtom(Eq(Expr::Literal(Value::Integer(7)), Col(3)));
  EXPECT_EQ(rev.type, AtomType::kType1ColumnConstant);
  EXPECT_EQ(rev.column, 3u);

  EqualityAtom hv = ClassifyAtom(Eq(Col(2), Expr::HostVar(0, "X",
                                                          TypeId::kInteger)));
  EXPECT_EQ(hv.type, AtomType::kType1ColumnConstant);
  ASSERT_TRUE(hv.host_var.has_value());

  EqualityAtom t2 = ClassifyAtom(Eq(Col(1), Col(4)));
  EXPECT_EQ(t2.type, AtomType::kType2ColumnColumn);

  EXPECT_EQ(ClassifyAtom(Expr::Compare(CompareOp::kLt, Col(0), Col(1))).type,
            AtomType::kOther);
  EXPECT_EQ(ClassifyAtom(Expr::IsNull(Col(0))).type, AtomType::kOther);
  EXPECT_EQ(ClassifyAtom(Expr::Compare(CompareOp::kNe, Col(0), Col(1))).type,
            AtomType::kOther);
}

TEST(EqualityTest, ExtractFromConjunction) {
  ExprPtr pred = Expr::MakeAnd(
      {Eq(Col(0), Col(1)), Eq(Col(2), Expr::Literal(Value::Integer(5))),
       Expr::Compare(CompareOp::kGt, Col(3),
                     Expr::Literal(Value::Integer(0)))});
  bool has_other = false;
  std::vector<EqualityAtom> atoms = ExtractEqualities(pred, &has_other);
  EXPECT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(has_other);
}

TEST(ExprTest, RemapAndShiftColumns) {
  ExprPtr pred = Eq(Col(0), Col(2));
  ExprPtr shifted = ShiftColumns(pred, 5);
  EXPECT_EQ(shifted->child(0)->column_index(), 5u);
  EXPECT_EQ(shifted->child(1)->column_index(), 7u);
  ExprPtr remapped = RemapColumns(pred, {9, 0, 4});
  EXPECT_EQ(remapped->child(0)->column_index(), 9u);
  EXPECT_EQ(remapped->child(1)->column_index(), 4u);
}

TEST(ExprTest, CollectColumnsAndEquals) {
  ExprPtr pred = Expr::MakeAnd({Eq(Col(0), Col(2)), Expr::IsNull(Col(7))});
  std::vector<size_t> cols;
  pred->CollectColumns(&cols);
  EXPECT_EQ(cols.size(), 3u);
  EXPECT_EQ(pred->MaxColumnIndexPlusOne(), 8u);
  EXPECT_TRUE(pred->Equals(*pred));
  ExprPtr other = Expr::MakeAnd({Eq(Col(0), Col(3)), Expr::IsNull(Col(7))});
  EXPECT_FALSE(pred->Equals(*other));
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr pred = Expr::MakeAnd(
      {Eq(Expr::ColumnRef(0, "S.SNO", TypeId::kInteger),
          Expr::ColumnRef(5, "P.SNO", TypeId::kInteger)),
       Eq(Expr::ColumnRef(9, "P.COLOR", TypeId::kString),
          Expr::Literal(Value::String("RED")))});
  EXPECT_EQ(pred->ToString(), "(S.SNO = P.SNO AND P.COLOR = 'RED')");
}

TEST(PredicateProgramTest, FilterSelKeepsExactlyTheInterpretersTrueRows) {
  // Columns: INTEGER, DOUBLE, STRING, BOOLEAN. The pools hold NULLs of
  // each type, integers around 2^53 (where a double stops being exact)
  // and strings of 12-14 bytes (around the inline capacity).
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<TypeId> types = {TypeId::kInteger, TypeId::kDouble,
                                     TypeId::kString, TypeId::kBoolean};
  const std::vector<std::vector<Value>> pools = {
      {Value::Null(TypeId::kInteger), Value::Integer(-3), Value::Integer(0),
       Value::Integer(7), Value::Integer(k53), Value::Integer(k53 + 1)},
      {Value::Null(TypeId::kDouble), Value::Double(-2.5), Value::Double(0.0),
       Value::Double(7.0), Value::Double(9007199254740992.0)},
      {Value::Null(TypeId::kString), Value::String(""),
       Value::String("abcdefghijkl"), Value::String("abcdefghijklm"),
       Value::String("abcdefghijklmn"), Value::String("abcdefghijklmo")},
      {Value::Null(TypeId::kBoolean), Value::Boolean(false),
       Value::Boolean(true)},
  };
  std::mt19937 rng(20261020);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    std::vector<Value> values;
    for (const std::vector<Value>& pool : pools) {
      values.push_back(pool[rng() % pool.size()]);
    }
    rows.emplace_back(std::move(values));
  }
  // One host variable per column, plus a NULL one.
  std::vector<Value> params = {Value::Integer(k53), Value::Double(7.0),
                               Value::String("abcdefghijklm"),
                               Value::Boolean(true),
                               Value::Null(TypeId::kInteger)};

  std::vector<ExprPtr> atoms;
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (size_t c = 0; c < types.size(); ++c) {
    ExprPtr col = Col(c, types[c]);
    for (CompareOp op : ops) {
      for (const Value& v : pools[c]) {
        atoms.push_back(Expr::Compare(op, col, Expr::Literal(v)));
      }
      atoms.push_back(Expr::Compare(op, col, Expr::HostVar(c, "H", types[c])));
      // Literal on the left: the program flips the operator.
      atoms.push_back(Expr::Compare(op, Expr::Literal(pools[c].back()), col));
    }
    atoms.push_back(Expr::IsNull(col));
    atoms.push_back(Expr::IsNotNull(col));
  }
  for (CompareOp op : ops) {
    // 2^53 + 1 against 2^53.0 across the two numeric types.
    atoms.push_back(Expr::Compare(
        op, Col(0), Expr::Literal(Value::Double(9007199254740992.0))));
    atoms.push_back(
        Expr::Compare(op, Col(1), Expr::Literal(Value::Integer(k53 + 1))));
    atoms.push_back(Expr::Compare(
        op, Col(0), Expr::HostVar(4, "NULLVAR", TypeId::kInteger)));
  }

  std::vector<ExprPtr> predicates = atoms;
  for (size_t i = 0; i + 2 < atoms.size(); i += 3) {
    predicates.push_back(
        Expr::MakeAnd({atoms[i], atoms[atoms.size() - 1 - i]}));
    predicates.push_back(Expr::MakeAnd(
        {atoms[i], atoms[(i * 7) % atoms.size()], Expr::IsNotNull(Col(2))}));
  }
  // A column-to-column comparison is left to the interpreter.
  ExprPtr interpreted = Expr::Compare(CompareOp::kLt, Col(0), Col(1));
  ASSERT_FALSE(PredicateProgram::Compile(interpreted).fully_compiled());
  predicates.push_back(interpreted);
  ExprPtr double_ge_host = Expr::Compare(
      CompareOp::kGe, Col(1), Expr::HostVar(1, "H", TypeId::kDouble));
  predicates.push_back(Expr::MakeAnd(
      {Expr::IsNotNull(Col(3)), interpreted, double_ge_host}));

  for (const ExprPtr& p : predicates) {
    std::vector<uint32_t> expected;
    std::vector<uint32_t> sel;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      sel.push_back(i);
      if (p->EvaluatePredicate(rows[i], params) == Tribool::kTrue) {
        expected.push_back(i);
      }
    }
    PredicateProgram::Compile(p).FilterSel(rows.data(), &sel, params);
    EXPECT_EQ(sel, expected) << p->ToString();
  }
}

}  // namespace
}  // namespace uniqopt
