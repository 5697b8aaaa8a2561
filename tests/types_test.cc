#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

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
                    two_53 - 1, two_53, -two_53, two_53 + 2, INT64_MIN}) {
    Value integer = Value::Integer(i);
    Value dbl = Value::Double(static_cast<double>(i));
    ASSERT_EQ(integer.Compare(dbl), 0) << i;
    EXPECT_EQ(integer.Hash(), dbl.Hash()) << i;
  }
  // No double holds 2^53 + 1: converting it rounds to 2^53.0. Compared
  // exactly, it lies above 2^53.0, which equals the integer 2^53, so `=`
  // stays transitive over the three.
  const Value values[] = {Value::Integer(two_53), Value::Integer(two_53 + 1),
                          Value::Double(0x1p53)};
  EXPECT_EQ(values[0].Compare(values[2]), 0);
  EXPECT_GT(values[1].Compare(values[2]), 0);
  EXPECT_LT(values[2].Compare(values[1]), 0);
  EXPECT_LT(values[0].Compare(values[1]), 0);
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a)) << a << " " << b;
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a << " " << b << " " << c;
        }
        if (a.Compare(b) == 0 && b.Compare(c) == 0) {
          EXPECT_EQ(a.Compare(c), 0) << a << " " << b << " " << c;
        }
      }
    }
  }
  EXPECT_EQ(values[0].Hash(), values[2].Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Integer(0).Hash());
}

TEST(ValueTest, IntegerAndDoubleCompareExactlyBeyondEveryRange) {
  EXPECT_LT(Value::Integer(INT64_MAX).Compare(Value::Double(0x1p63)), 0);
  EXPECT_GT(Value::Double(1e19).Compare(Value::Integer(INT64_MAX)), 0);
  EXPECT_EQ(Value::Integer(INT64_MIN).Compare(Value::Double(-0x1p63)), 0);
  EXPECT_GT(Value::Integer(INT64_MIN).Compare(Value::Double(-1e19)), 0);
  EXPECT_GT(Value::Integer(-2).Compare(Value::Double(-2.5)), 0);
  EXPECT_LT(Value::Integer(-3).Compare(Value::Double(-2.5)), 0);
  EXPECT_GT(Value::Integer(int64_t{1} << 60).Compare(Value::Double(0.5)), 0);
  // A NaN ties with every number, as it always has.
  EXPECT_EQ(Value::Integer(7).Compare(Value::Double(std::nan(""))), 0);
  EXPECT_EQ(Value::Double(std::nan("")).Compare(Value::Integer(7)), 0);
}

TEST(ValueTest, ExactIntegerConvertsOnlyIntegralDoublesInRange) {
  EXPECT_EQ(ExactInteger(0.0), 0);
  EXPECT_EQ(ExactInteger(-0.0), 0);
  EXPECT_EQ(ExactInteger(-42.0), -42);
  EXPECT_EQ(ExactInteger(0x1p53), int64_t{1} << 53);
  EXPECT_EQ(ExactInteger(-0x1p63), INT64_MIN);
  EXPECT_EQ(ExactInteger(0x1p63), std::nullopt);
  EXPECT_EQ(ExactInteger(1e19), std::nullopt);
  EXPECT_EQ(ExactInteger(-1e19), std::nullopt);
  EXPECT_EQ(ExactInteger(2.5), std::nullopt);
  EXPECT_EQ(ExactInteger(std::nan("")), std::nullopt);
  EXPECT_EQ(ExactInteger(HUGE_VAL), std::nullopt);
  EXPECT_EQ(ExactInteger(-HUGE_VAL), std::nullopt);
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

/// A datum held in plain C++ types: the reference the representation
/// tests check Value against.
struct Plain {
  TypeId type = TypeId::kInteger;
  bool null = false;
  bool b = false;
  int64_t i = 0;
  double d = 0;
  std::string s;

  Value ToValue() const {
    if (null) return Value::Null(type);
    switch (type) {
      case TypeId::kBoolean:
        return Value::Boolean(b);
      case TypeId::kInteger:
        return Value::Integer(i);
      case TypeId::kDouble:
        return Value::Double(d);
      case TypeId::kString:
        return Value::String(s);
    }
    return Value();
  }
};

template <typename T>
int Sign(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// The sign of Value::Compare, from the plain values. long double holds
/// every int64 and every double exactly on x86-64, which compares an
/// INTEGER with a DOUBLE without the conversion Value avoids.
int ReferenceCompare(const Plain& a, const Plain& b) {
  if (a.null || b.null) return int{!a.null} - int{!b.null};
  auto numeric = [](const Plain& p) {
    return p.type == TypeId::kInteger ? static_cast<long double>(p.i)
                                      : static_cast<long double>(p.d);
  };
  switch (a.type) {
    case TypeId::kBoolean:
      return Sign(a.b, b.b);
    case TypeId::kString:
      return Sign(a.s.compare(b.s), 0);
    default:
      return Sign(numeric(a), numeric(b));
  }
}

size_t ReferenceHash(const Plain& p) {
  if (p.null) return Value::Null(p.type).Hash();
  switch (p.type) {
    case TypeId::kBoolean:
      return Value::Boolean(p.b).Hash();
    case TypeId::kInteger:
      return std::hash<int64_t>{}(p.i);
    case TypeId::kDouble:
      if (p.d >= -0x1p63 && p.d < 0x1p63 && p.d == std::floor(p.d)) {
        return std::hash<int64_t>{}(static_cast<int64_t>(p.d));
      }
      return std::hash<double>{}(p.d);
    case TypeId::kString:
      return std::hash<std::string>{}(p.s);
  }
  return 0;
}

std::string ReferenceToString(const Plain& p) {
  if (p.null) return "NULL";
  switch (p.type) {
    case TypeId::kBoolean:
      return p.b ? "TRUE" : "FALSE";
    case TypeId::kInteger:
      return std::to_string(p.i);
    case TypeId::kDouble:
      return std::to_string(p.d);
    case TypeId::kString:
      return "'" + p.s + "'";
  }
  return "?";
}

/// Strings of these lengths sit around the inline capacity.
std::vector<size_t> EdgeLengths() {
  const size_t cap = Value::kInlineCapacity;
  return {0, 1, cap - 1, cap, cap + 1, 64};
}

/// A string of `n` bytes cycling through `bytes`.
std::string Cycle(size_t n, std::string_view bytes) {
  std::string s(n, '\0');
  for (size_t k = 0; k < n; ++k) s[k] = bytes[k % bytes.size()];
  return s;
}

std::vector<Plain> RandomPlains(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  const int64_t two_53 = int64_t{1} << 53;
  const int64_t ints[] = {0,          1,          -1,         7,
                          two_53 - 1, two_53,     two_53 + 1, -two_53,
                          INT64_MAX,  INT64_MIN,  1000000000000000};
  const double doubles[] = {0.0,   -0.0,   0.5,    -2.5,   7.0,   0x1p53,
                            0x1p63, -0x1p63, 1e19, -1e300, 1e-300, 1e15};
  // Small alphabets make equal strings and shared prefixes common.
  const std::string_view bytes[] = {std::string_view("ab", 2),
                                    std::string_view("a\0\x7f\x80\xff", 5)};
  std::vector<Plain> out;
  for (size_t k = 0; k < n; ++k) {
    Plain p;
    p.type = static_cast<TypeId>(rng() % 4);
    p.null = rng() % 8 == 0;
    p.b = rng() % 2 == 0;
    p.i = rng() % 2 == 0 ? ints[rng() % std::size(ints)]
                         : static_cast<int64_t>(rng() % 64) - 32;
    p.d = rng() % 2 == 0 ? doubles[rng() % std::size(doubles)]
                         : static_cast<double>(rng() % 64) / 4 - 8;
    std::vector<size_t> lengths = EdgeLengths();
    size_t length = rng() % 2 == 0 ? lengths[rng() % lengths.size()]
                                   : static_cast<size_t>(rng() % 4);
    std::string_view alphabet = bytes[rng() % 2];
    p.s.resize(length);
    for (char& c : p.s) c = alphabet[rng() % alphabet.size()];
    out.push_back(p);
  }
  return out;
}

TEST(ValueTest, MatchesPlainTypesOnRandomPairs) {
  for (uint64_t seed : {1, 7, 19}) {
    std::vector<Plain> plains = RandomPlains(seed, 300);
    std::vector<Value> values;
    for (const Plain& p : plains) values.push_back(p.ToValue());
    for (size_t a = 0; a < plains.size(); ++a) {
      const Plain& pa = plains[a];
      const Value& va = values[a];
      ASSERT_EQ(va.type(), pa.type);
      ASSERT_EQ(va.is_null(), pa.null);
      EXPECT_EQ(va.Hash(), ReferenceHash(pa)) << va;
      EXPECT_EQ(va.ToString(), ReferenceToString(pa));
      for (size_t b = 0; b < plains.size(); ++b) {
        const Plain& pb = plains[b];
        const Value& vb = values[b];
        if (!pa.null && !pb.null && !Value::Comparable(pa.type, pb.type)) {
          continue;
        }
        const int expected = ReferenceCompare(pa, pb);
        ASSERT_EQ(Sign(va.Compare(vb), 0), expected) << va << " vs " << vb;
        EXPECT_EQ(va.NullSafeEquals(vb), expected == 0);
        EXPECT_EQ(va.SqlEquals(vb),
                  pa.null || pb.null ? Tribool::kUnknown
                                     : FromBool(expected == 0));
        if (expected == 0) {
          EXPECT_EQ(va.Hash(), vb.Hash()) << va << " vs " << vb;
        }
      }
    }
  }
}

TEST(ValueTest, StringsAroundTheInlineCapacity) {
  std::vector<std::string> strings;
  for (size_t n : EdgeLengths()) {
    strings.push_back(Cycle(n, "xy"));
    strings.push_back(Cycle(n, std::string_view("\0\x7f\x80\xff", 4)));
  }
  strings.push_back(std::string("a\0b", 3));
  for (const std::string& s : strings) {
    Value v = Value::String(s);
    EXPECT_EQ(v.type(), TypeId::kString);
    EXPECT_FALSE(v.is_null());
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.AsString().size(), s.size());
    EXPECT_EQ(v.Hash(), std::hash<std::string>{}(s));
    EXPECT_EQ(v.ToString(), "'" + s + "'");
    Value copy = v;
    EXPECT_EQ(copy.AsString(), s);
    EXPECT_EQ(copy.Compare(v), 0);
    for (const std::string& t : strings) {
      EXPECT_EQ(Sign(v.Compare(Value::String(t)), 0), Sign(s.compare(t), 0));
    }
  }
  // Bytes order unsigned, as std::string compares them.
  EXPECT_LT(Value::String("\x7f").Compare(Value::String("\x80")), 0);
  EXPECT_LT(Value::String("\x80").Compare(Value::String("\xff")), 0);
  EXPECT_LT(Value::String("").Compare(Value::String(std::string(1, '\0'))),
            0);
  EXPECT_GT(Value::String(std::string("a\0b", 3)).Compare(Value::String("a")),
            0);
  // A typed NULL keeps its type; NULLs of every type tie and hash alike.
  for (TypeId t : {TypeId::kBoolean, TypeId::kInteger, TypeId::kDouble,
                   TypeId::kString}) {
    Value null = Value::Null(t);
    EXPECT_EQ(null.type(), t);
    EXPECT_TRUE(null.is_null());
    EXPECT_EQ(null.ToString(), "NULL");
    EXPECT_EQ(null.Compare(Value::Null(TypeId::kString)), 0);
    EXPECT_EQ(null.Hash(), Value().Hash());
    EXPECT_LT(null.Compare(Value::String("")), 0);
  }
  EXPECT_EQ(Value().type(), TypeId::kInteger);
  EXPECT_TRUE(Value().is_null());
}

TEST(ValueTest, CopiesAndMovesAcrossEveryPairOfStates) {
  const std::string long_string = Cycle(40, "long");
  // NULL, scalar, inline string, heap string.
  const std::vector<Value> states = {
      Value::Null(TypeId::kString), Value::Integer(-5),
      Value::Double(2.5),           Value::String("inline"),
      Value::String(long_string)};
  auto same = [](const Value& a, const Value& b) {
    return a.type() == b.type() && a.is_null() == b.is_null() &&
           a.ToString() == b.ToString();
  };
  for (const Value& src : states) {
    Value copied(src);
    EXPECT_TRUE(same(copied, src)) << src;
    Value source(src);
    Value moved(std::move(source));
    EXPECT_TRUE(same(moved, src)) << src;
    if (src.type() == TypeId::kString && !src.is_null()) {
      // A moved-from string stays valid: unchanged when it was inline,
      // empty when its buffer moved.
      EXPECT_TRUE(same(source, src) || source.AsString().empty()) << src;
    }
    Value self(src);
    Value& alias = self;
    self = alias;
    EXPECT_TRUE(same(self, src)) << src;
    self = std::move(alias);
    EXPECT_TRUE(same(self, src)) << src;
    for (const Value& dst : states) {
      Value assigned(dst);
      assigned = src;
      EXPECT_TRUE(same(assigned, src)) << dst << " = " << src;
      Value from(src);
      Value move_assigned(dst);
      move_assigned = std::move(from);
      EXPECT_TRUE(same(move_assigned, src)) << dst << " = move " << src;
      // The target's old buffer is gone; the source's copy lives on.
      Value keep(src);
      Value over(dst);
      over = keep;
      keep = dst;
      EXPECT_TRUE(same(over, src));
      EXPECT_TRUE(same(keep, dst));
    }
  }
  EXPECT_EQ(Value::String(long_string).AsString(), long_string);
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
