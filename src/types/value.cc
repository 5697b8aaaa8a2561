#include "types/value.h"

#include <cmath>
#include <functional>
#include <ostream>

#include "common/hash.h"
#include "common/logging.h"

namespace uniqopt {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kBoolean:
      return "BOOLEAN";
    case TypeId::kInteger:
      return "INTEGER";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "?";
}

double Value::AsNumeric() const {
  UNIQOPT_DCHECK(!is_null());
  if (type_ == TypeId::kInteger) return static_cast<double>(AsInteger());
  UNIQOPT_DCHECK(type_ == TypeId::kDouble);
  return AsDouble();
}

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInteger || t == TypeId::kDouble;
}

/// 2^53: integers of smaller magnitude convert to double exactly.
constexpr int64_t kExactIntegerLimit = int64_t{1} << 53;

}  // namespace

bool Value::Comparable(TypeId a, TypeId b) {
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

Tribool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return Tribool::kUnknown;
  return FromBool(Compare(other) == 0);
}

Tribool Value::SqlLess(const Value& other) const {
  if (is_null() || other.is_null()) return Tribool::kUnknown;
  return FromBool(Compare(other) < 0);
}

Tribool Value::SqlLessEqual(const Value& other) const {
  if (is_null() || other.is_null()) return Tribool::kUnknown;
  return FromBool(Compare(other) <= 0);
}

bool Value::NullSafeEquals(const Value& other) const {
  if (is_null() && other.is_null()) return true;
  if (is_null() != other.is_null()) return false;
  return Compare(other) == 0;
}

int Value::Compare(const Value& other) const {
  // NULL sorts before every non-NULL value; NULLs tie with each other.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  UNIQOPT_DCHECK_MSG(Comparable(type_, other.type_),
                     "comparing incomparable types");
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kInteger && other.type_ == TypeId::kInteger) {
      int64_t a = AsInteger();
      int64_t b = other.AsInteger();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsNumeric();
    double b = other.AsNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  switch (type_) {
    case TypeId::kBoolean: {
      int a = AsBoolean() ? 1 : 0;
      int b = other.AsBoolean() ? 1 : 0;
      return a - b;
    }
    case TypeId::kString:
      return AsString().compare(other.AsString());
    default:
      break;
  }
  UNIQOPT_DCHECK_MSG(false, "unreachable type in Compare");
  return 0;
}

size_t Value::Hash() const {
  if (is_null()) return 0x9d2c5680;  // All NULLs hash alike (=! semantics).
  switch (type_) {
    case TypeId::kBoolean:
      return AsBoolean() ? 0x517cc1b7 : 0x27220a95;
    // `Compare` equates an integer with a double by converting it to
    // double, which is exact below 2^53 in magnitude: there an integral
    // double hashes like the equal integer. From 2^53 on the conversion
    // rounds (2^53 + 1 becomes 2^53.0, so it equals 2^53.0 but not the
    // integer 2^53), and both types hash the double the integer rounds
    // to: equal values still hash alike, and integers that round alike
    // collide.
    case TypeId::kInteger: {
      int64_t i = AsInteger();
      if (i > -kExactIntegerLimit && i < kExactIntegerLimit) {
        return std::hash<int64_t>{}(i);
      }
      return std::hash<double>{}(static_cast<double>(i));
    }
    case TypeId::kDouble: {
      double d = AsDouble();
      if (std::abs(d) < static_cast<double>(kExactIntegerLimit) &&
          d == std::floor(d)) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case TypeId::kString:
      return std::hash<std::string>{}(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case TypeId::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
    case TypeId::kInteger:
      return std::to_string(AsInteger());
    case TypeId::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case TypeId::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace uniqopt
