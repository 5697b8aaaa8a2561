#include "types/value.h"

#include <cmath>
#include <cstdlib>
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

std::optional<int64_t> ExactInteger(double d) {
  // int64 holds [-2^63, 2^63); both bounds are exact doubles. NaN fails
  // both comparisons.
  if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d)) return std::nullopt;
  return static_cast<int64_t>(d);
}

char* Value::NewHeap(std::string_view s) {
  size_t size = s.size();
  char* heap = new char[sizeof(size) + size];
  std::memcpy(heap, &size, sizeof(size));
  std::memcpy(heap + sizeof(size), s.data(), size);
  return heap;
}

char* Value::CopyHeap(const char* heap) {
  size_t size;
  std::memcpy(&size, heap, sizeof(size));
  return NewHeap({heap + sizeof(size), size});
}

void Value::WrongAccessor() {
  UNIQOPT_DCHECK_MSG(false, "Value accessor of the wrong type, or of NULL");
  std::abort();
}

double Value::AsNumeric() const {
  UNIQOPT_DCHECK(!is_null());
  if (type() == TypeId::kInteger) return static_cast<double>(AsInteger());
  UNIQOPT_DCHECK(type() == TypeId::kDouble);
  return AsDouble();
}

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInteger || t == TypeId::kDouble;
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// The exact order of an integer and a double. A NaN is neither below
/// nor above any number, so it ties with every integer.
int CompareIntegerDouble(int64_t i, double d) {
  if (std::optional<int64_t> j = ExactInteger(d)) return ThreeWay(i, *j);
  if (std::isnan(d)) return 0;
  if (std::abs(d) >= 0x1p63) return d > 0 ? -1 : 1;
  // `d` has a fraction, so |d| < 2^52: converting `i` may round it, but
  // never to the other side of `d`.
  return ThreeWay(static_cast<double>(i), d);
}

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
  UNIQOPT_DCHECK_MSG(Comparable(type(), other.type()),
                     "comparing incomparable types");
  switch (type()) {
    case TypeId::kBoolean:
      return int{AsBoolean()} - int{other.AsBoolean()};
    case TypeId::kInteger:
      if (other.type() == TypeId::kDouble) {
        return CompareIntegerDouble(AsInteger(), other.AsDouble());
      }
      return ThreeWay(AsInteger(), other.AsInteger());
    case TypeId::kDouble:
      if (other.type() == TypeId::kInteger) {
        return -CompareIntegerDouble(other.AsInteger(), AsDouble());
      }
      return ThreeWay(AsDouble(), other.AsDouble());
    case TypeId::kString:
      return AsString().compare(other.AsString());
  }
  UNIQOPT_DCHECK_MSG(false, "unreachable type in Compare");
  return 0;
}

size_t Value::Hash() const {
  if (is_null()) return 0x9d2c5680;  // All NULLs hash alike (=! semantics).
  switch (type()) {
    case TypeId::kBoolean:
      return AsBoolean() ? 0x517cc1b7 : 0x27220a95;
    // `Compare` equates a double with an integer only when the double is
    // that integer's exact value, so such a double hashes as the integer.
    case TypeId::kInteger:
      return std::hash<int64_t>{}(AsInteger());
    case TypeId::kDouble: {
      double d = AsDouble();
      if (std::optional<int64_t> i = ExactInteger(d)) {
        return std::hash<int64_t>{}(*i);
      }
      return std::hash<double>{}(d);
    }
    case TypeId::kString:
      return std::hash<std::string_view>{}(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type()) {
    case TypeId::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
    case TypeId::kInteger:
      return std::to_string(AsInteger());
    case TypeId::kDouble:
      return std::to_string(AsDouble());
    case TypeId::kString: {
      std::string_view s = AsString();
      std::string out;
      out.reserve(s.size() + 2);
      out += '\'';
      out += s;
      out += '\'';
      return out;
    }
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace uniqopt
