#ifndef UNIQOPT_TYPES_VALUE_H_
#define UNIQOPT_TYPES_VALUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "types/tribool.h"

namespace uniqopt {

/// Column / value types supported by the library's SQL subset.
enum class TypeId {
  kBoolean,
  kInteger,  ///< 64-bit signed.
  kDouble,
  kString,
};

const char* TypeIdToString(TypeId t);

/// The int64 equal to `d`, if there is one: nullopt when `d` is NaN, has
/// a fraction or lies outside int64's range (casting such a double to
/// int64 is undefined behaviour).
std::optional<int64_t> ExactInteger(double d);

/// A typed SQL datum, possibly NULL, held in 16 bytes. Scalars keep their
/// 8-byte word; strings of up to `kInlineCapacity` bytes are stored in
/// the Value itself, longer ones in a heap buffer the Value owns and
/// deep-copies. Copying any other Value copies 16 bytes.
///
/// Two distinct equality notions are exposed, matching the paper's §3.1:
///  - `SqlEquals` — the WHERE-clause comparison: any NULL operand yields
///    UNKNOWN (three-valued logic);
///  - `NullSafeEquals` — the paper's `=!` operator used by DISTINCT,
///    GROUP BY, set operations and functional-dependency satisfaction:
///    `NULL =! NULL` is *true*, and NULL never equals a non-NULL value.
class Value {
 public:
  /// The longest string held without a heap buffer.
  static constexpr size_t kInlineCapacity = 13;

  /// Constructs a NULL of the given type.
  static Value Null(TypeId type) { return Value(type, kNull); }
  static Value Boolean(bool v) { return Scalar(TypeId::kBoolean, v); }
  static Value Integer(int64_t v) {
    return Scalar(TypeId::kInteger, static_cast<uint64_t>(v));
  }
  static Value Double(double v) {
    return Scalar(TypeId::kDouble, std::bit_cast<uint64_t>(v));
  }
  static Value String(std::string_view v) {
    Value s(TypeId::kString, kInline);
    if (v.size() > kInlineCapacity) {
      s.rep_[1] = kHeap;
      s.set_heap(NewHeap(v));
    } else if (!v.empty()) {
      s.rep_[2] = static_cast<char>(v.size());
      std::memcpy(s.rep_ + 3, v.data(), v.size());
    }
    return s;
  }

  /// Default: NULL integer; needed so Row can be resized.
  Value() : Value(TypeId::kInteger, kNull) {}

  Value(const Value& other) {
    std::memcpy(rep_, other.rep_, sizeof(rep_));
    if (state() == kHeap) set_heap(CopyHeap(other.heap()));
  }
  Value& operator=(const Value& other) {
    if (this != &other) {
      char* copy = other.state() == kHeap ? CopyHeap(other.heap()) : nullptr;
      Release();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
      if (copy != nullptr) set_heap(copy);
    }
    return *this;
  }
  /// A moved-from string is empty, as a moved-from std::string is.
  Value(Value&& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof(rep_));
    other.Disown();
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
      other.Disown();
    }
    return *this;
  }
  ~Value() { Release(); }

  TypeId type() const { return static_cast<TypeId>(rep_[0]); }
  bool is_null() const { return state() == kNull; }

  /// Typed accessors; calling the wrong accessor or reading a NULL aborts
  /// (callers must check `is_null()` / `type()` first).
  bool AsBoolean() const { return scalar(TypeId::kBoolean) != 0; }
  int64_t AsInteger() const {
    return static_cast<int64_t>(scalar(TypeId::kInteger));
  }
  double AsDouble() const {
    return std::bit_cast<double>(scalar(TypeId::kDouble));
  }
  /// A view of the string, valid while this Value lives unchanged.
  std::string_view AsString() const {
    if (state() == kInline) {
      return {rep_ + 3, static_cast<unsigned char>(rep_[2])};
    }
    if (state() != kHeap) WrongAccessor();
    size_t size;
    std::memcpy(&size, heap(), sizeof(size));
    return {heap() + sizeof(size), size};
  }

  /// Numeric view: an integer converts to the nearest double (rounding
  /// past 2^53), so comparisons go through `Compare`, not this.
  double AsNumeric() const;

  /// Three-valued WHERE-clause equality (NULL ⇒ UNKNOWN).
  Tribool SqlEquals(const Value& other) const;
  /// Three-valued ordering comparisons (NULL ⇒ UNKNOWN).
  Tribool SqlLess(const Value& other) const;
  Tribool SqlLessEqual(const Value& other) const;

  /// The paper's `=!` operator: NULLs compare equal to each other.
  bool NullSafeEquals(const Value& other) const;

  /// Total order used for sorting: NULL sorts first, then by value.
  /// Returns <0, 0, >0. NULLs of any type compare equal to each other.
  /// An INTEGER and a DOUBLE compare exactly: equal only when the double
  /// is the integer's value.
  int Compare(const Value& other) const;

  /// Hash consistent with `NullSafeEquals` (all NULLs hash alike).
  size_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", 42, 'RED', 3.5, TRUE).
  std::string ToString() const;

  /// True when values of these types may be compared (numeric↔numeric or
  /// same type).
  static bool Comparable(TypeId a, TypeId b);

 private:
  /// How the value is held (byte 1).
  enum State : char { kNull, kScalar, kInline, kHeap };

  Value(TypeId type, State state) : rep_{} {
    rep_[0] = static_cast<char>(type);
    rep_[1] = state;
  }
  static Value Scalar(TypeId type, uint64_t word) {
    Value v(type, kScalar);
    std::memcpy(v.rep_ + 8, &word, sizeof(word));
    return v;
  }

  State state() const { return static_cast<State>(rep_[1]); }
  uint64_t scalar(TypeId type) const {
    if (rep_[0] != static_cast<char>(type) || state() != kScalar) {
      WrongAccessor();
    }
    uint64_t word;
    std::memcpy(&word, rep_ + 8, sizeof(word));
    return word;
  }
  char* heap() const {
    char* p;
    std::memcpy(&p, rep_ + 8, sizeof(p));
    return p;
  }
  void set_heap(char* p) { std::memcpy(rep_ + 8, &p, sizeof(p)); }
  void Release() {
    if (state() == kHeap) delete[] heap();
  }
  /// Leaves a heap string's buffer to the Value it was moved to.
  void Disown() {
    if (state() == kHeap) {
      rep_[1] = kInline;
      rep_[2] = 0;
    }
  }

  /// A heap buffer holds the string's length, then its bytes.
  static char* NewHeap(std::string_view s);
  static char* CopyHeap(const char* heap);
  [[noreturn]] static void WrongAccessor();

  /// Byte 0: the TypeId; byte 1: the State. A kScalar keeps its word in
  /// bytes 8-15 (the int64, the double's bits or the bool), a kHeap its
  /// buffer's address. A kInline keeps its length in byte 2 and its
  /// bytes in bytes 3-15.
  alignas(8) char rep_[16];
};

static_assert(sizeof(Value) == 16);

/// `operator==` follows NullSafeEquals (container/test convenience).
inline bool operator==(const Value& a, const Value& b) {
  return a.NullSafeEquals(b);
}
inline bool operator!=(const Value& a, const Value& b) { return !(a == b); }

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace uniqopt

#endif  // UNIQOPT_TYPES_VALUE_H_
