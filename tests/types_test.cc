#include <gtest/gtest.h>

#include "types/row.h"
#include "types/schema.h"
#include "types/tribool.h"
#include "types/value.h"

namespace uniqopt {
namespace {

TEST(TriboolTest, KleeneAnd) {
  EXPECT_EQ(And(Tribool::kTrue, Tribool::kTrue), Tribool::kTrue);
  EXPECT_EQ(And(Tribool::kTrue, Tribool::kUnknown), Tribool::kUnknown);
  EXPECT_EQ(And(Tribool::kFalse, Tribool::kUnknown), Tribool::kFalse);
  EXPECT_EQ(And(Tribool::kUnknown, Tribool::kUnknown), Tribool::kUnknown);
}

TEST(TriboolTest, KleeneOr) {
  EXPECT_EQ(Or(Tribool::kFalse, Tribool::kFalse), Tribool::kFalse);
  EXPECT_EQ(Or(Tribool::kTrue, Tribool::kUnknown), Tribool::kTrue);
  EXPECT_EQ(Or(Tribool::kFalse, Tribool::kUnknown), Tribool::kUnknown);
}

TEST(TriboolTest, KleeneNot) {
  EXPECT_EQ(Not(Tribool::kTrue), Tribool::kFalse);
  EXPECT_EQ(Not(Tribool::kFalse), Tribool::kTrue);
  EXPECT_EQ(Not(Tribool::kUnknown), Tribool::kUnknown);
}

TEST(TriboolTest, Interpretations) {
  // Table 2 of the paper: ⌊·⌋ maps UNKNOWN to false, ⌈·⌉ to true.
  EXPECT_FALSE(FalseInterpreted(Tribool::kUnknown));
  EXPECT_TRUE(TrueInterpreted(Tribool::kUnknown));
  EXPECT_TRUE(FalseInterpreted(Tribool::kTrue));
  EXPECT_FALSE(TrueInterpreted(Tribool::kFalse));
}

TEST(ValueTest, SqlEqualsIsThreeValued) {
  Value null_int = Value::Null(TypeId::kInteger);
  Value five = Value::Integer(5);
  EXPECT_EQ(five.SqlEquals(Value::Integer(5)), Tribool::kTrue);
  EXPECT_EQ(five.SqlEquals(Value::Integer(6)), Tribool::kFalse);
  // NULL = anything is UNKNOWN, including NULL = NULL (§3.1).
  EXPECT_EQ(null_int.SqlEquals(five), Tribool::kUnknown);
  EXPECT_EQ(null_int.SqlEquals(null_int), Tribool::kUnknown);
}

TEST(ValueTest, NullSafeEqualsTreatsNullAsValue) {
  Value null_int = Value::Null(TypeId::kInteger);
  // The =! operator of Table 2: NULL =! NULL is true.
  EXPECT_TRUE(null_int.NullSafeEquals(Value::Null(TypeId::kInteger)));
  EXPECT_FALSE(null_int.NullSafeEquals(Value::Integer(5)));
  EXPECT_TRUE(Value::Integer(5).NullSafeEquals(Value::Integer(5)));
}

TEST(ValueTest, MixedNumericComparison) {
  EXPECT_EQ(Value::Integer(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Integer(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Integer(2)), 0);
  // Hashes of =!-equal values collide.
  EXPECT_EQ(Value::Integer(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, EqualNumbersHashAlikeAtEveryMagnitude) {
  const int64_t two_53 = int64_t{1} << 53;
  for (int64_t i : {int64_t{1000000000000000}, int64_t{4000000000000000},
                    two_53 - 1, two_53, -two_53, two_53 + 1}) {
    Value integer = Value::Integer(i);
    Value dbl = Value::Double(static_cast<double>(i));
    ASSERT_EQ(integer.Compare(dbl), 0) << i;
    EXPECT_EQ(integer.Hash(), dbl.Hash()) << i;
  }
  // Past 2^53 the conversion rounds: 2^53 + 1 equals 2^53.0 but not the
  // integer 2^53. Both integers must hash like the double they equal.
  EXPECT_NE(Value::Integer(two_53 + 1).Compare(Value::Integer(two_53)), 0);
  EXPECT_EQ(Value::Integer(two_53 + 1).Hash(),
            Value::Double(static_cast<double>(two_53)).Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Integer(0).Hash());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(TypeId::kInteger).Compare(Value::Integer(-100)), 0);
  EXPECT_EQ(Value::Null(TypeId::kInteger)
                .Compare(Value::Null(TypeId::kString)),
            0);
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value::String("ABC").Compare(Value::String("ABD")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ToStringRendersSqlLiterals) {
  EXPECT_EQ(Value::Null(TypeId::kInteger).ToString(), "NULL");
  EXPECT_EQ(Value::Integer(42).ToString(), "42");
  EXPECT_EQ(Value::String("RED").ToString(), "'RED'");
  EXPECT_EQ(Value::Boolean(true).ToString(), "TRUE");
}

TEST(RowTest, ConcatAndProject) {
  Row left({Value::Integer(1), Value::String("a")});
  Row right({Value::Integer(2)});
  Row both = Row::Concat(left, right);
  ASSERT_EQ(both.size(), 3u);
  EXPECT_EQ(both[2].AsInteger(), 2);
  Row projected = both.Project({2, 0});
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_EQ(projected[0].AsInteger(), 2);
  EXPECT_EQ(projected[1].AsInteger(), 1);
}

TEST(RowTest, NullSafeEqualityAndHash) {
  Row a({Value::Integer(1), Value::Null(TypeId::kString)});
  Row b({Value::Integer(1), Value::Null(TypeId::kString)});
  Row c({Value::Integer(1), Value::String("x")});
  EXPECT_TRUE(a.NullSafeEquals(b));
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a.NullSafeEquals(c));
}

TEST(RowTest, CompareIsTotalOrder) {
  Row null_row({Value::Null(TypeId::kInteger)});
  Row one({Value::Integer(1)});
  Row two({Value::Integer(2)});
  EXPECT_LT(null_row.Compare(one), 0);
  EXPECT_LT(one.Compare(two), 0);
  EXPECT_EQ(one.Compare(one), 0);
}

TEST(SchemaTest, ResolveQualifiedAndUnqualified) {
  Schema schema({{"S", "SNO", TypeId::kInteger, false},
                 {"S", "SNAME", TypeId::kString, true},
                 {"P", "SNO", TypeId::kInteger, false}});
  auto r1 = schema.Resolve("S", "SNO");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 0u);
  // Unqualified SNO is ambiguous between S and P.
  auto r2 = schema.Resolve("", "SNO");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kBindError);
  // Unqualified SNAME is unique.
  auto r3 = schema.Resolve("", "sname");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, 1u);
  EXPECT_FALSE(schema.Resolve("X", "SNO").ok());
}

TEST(SchemaTest, ConcatProjectQualify) {
  Schema a({{"S", "SNO", TypeId::kInteger, false}});
  Schema b({{"P", "PNO", TypeId::kInteger, false}});
  Schema both = Schema::Concat(a, b);
  EXPECT_EQ(both.num_columns(), 2u);
  Schema projected = both.Project({1});
  EXPECT_EQ(projected.column(0).name, "PNO");
  Schema renamed = both.WithQualifier("X");
  EXPECT_EQ(renamed.column(0).qualifier, "X");
  EXPECT_EQ(renamed.column(1).qualifier, "X");
}

TEST(SchemaTest, UnionCompatibility) {
  Schema a({{"", "X", TypeId::kInteger, false}});
  Schema b({{"", "Y", TypeId::kDouble, true}});
  Schema c({{"", "Z", TypeId::kString, true}});
  EXPECT_TRUE(a.UnionCompatible(b));  // numeric widening
  EXPECT_FALSE(a.UnionCompatible(c));
  Schema two({{"", "X", TypeId::kInteger, false},
              {"", "Y", TypeId::kInteger, false}});
  EXPECT_FALSE(a.UnionCompatible(two));
}

}  // namespace
}  // namespace uniqopt
