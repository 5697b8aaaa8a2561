#include "exec/row_sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace uniqopt {
namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// One value's sort key. A key points into the row it was taken from,
/// so the rows must not move while their keys are in use.
struct SortKey {
  uint64_t word;       ///< see KeyWord; 0 when the column has no words
  const Value* value;  ///< null for NULL
};

/// The word of a non-NULL value: where two words of one column differ,
/// their unsigned order is the order of Value::Compare. `common` is the
/// length of the prefix all of the column's strings share; `short_strings`
/// says that no string runs more than 7 bytes past it.
uint64_t KeyWord(const Value& v, size_t common, bool short_strings) {
  switch (v.type()) {
    case TypeId::kBoolean:
      return v.AsBoolean() ? 1 : 0;
    case TypeId::kInteger:
      return static_cast<uint64_t>(v.AsInteger()) ^ kSignBit;
    case TypeId::kDouble: {
      // -0.0 equals 0.0. Setting the sign bit of a positive double and
      // flipping every bit of a negative one orders the bit patterns
      // like the numbers.
      double d = v.AsDouble();
      uint64_t bits = std::bit_cast<uint64_t>(d == 0 ? 0.0 : d);
      return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
    }
    case TypeId::kString: {
      // The 8 bytes after the common prefix, big-endian and zero-padded:
      // a string that ends inside them packs no higher than the strings
      // it is a prefix of, so equal words may still hide a difference.
      // Short strings keep their length in the low byte instead of an
      // eighth byte, which makes equal words equal strings.
      std::string_view s = v.AsString();
      uint64_t word = short_strings ? s.size() - common : 0;
      size_t end = std::min(s.size(), common + 8);
      for (size_t i = common; i < end; ++i) {
        word |= uint64_t{static_cast<unsigned char>(s[i])}
                << (56 - 8 * (i - common));
      }
      return word;
    }
  }
  return 0;
}

/// What the first pass over the rows learns about one column.
struct ColumnInfo {
  const Value* first = nullptr;  ///< the first non-NULL value
  /// The non-NULL values are all of `first`'s type and hold no NaN;
  /// otherwise the words stay 0 and Value::Compare orders the column.
  bool uniform = true;
  size_t common = 0;   ///< length of the strings' common prefix
  size_t longest = 0;  ///< length of the longest string
  bool exact = true;   ///< equal words mean equal values (see Finish)

  void Observe(const Value& v) {
    if (v.is_null() || !uniform) return;
    if (first == nullptr) {
      first = &v;
      if (v.type() == TypeId::kString) common = v.AsString().size();
    } else if (v.type() != first->type()) {
      uniform = false;
      return;
    }
    if (v.type() == TypeId::kDouble && std::isnan(v.AsDouble())) {
      uniform = false;
    } else if (v.type() == TypeId::kString) {
      std::string_view a = first->AsString();
      std::string_view b = v.AsString();
      longest = std::max(longest, b.size());
      common = std::min(common, b.size());
      common = static_cast<size_t>(
          std::mismatch(a.data(), a.data() + common, b.data()).first -
          a.data());
    }
  }

  bool short_strings() const { return longest - common < 8; }

  void Finish() {
    exact = uniform && (first == nullptr ||
                        first->type() != TypeId::kString || short_strings());
  }
};

/// The sign of Value::Compare on the keys' values. `exact`: equal words
/// mean equal values.
int CompareKeys(const SortKey& a, const SortKey& b, bool exact) {
  if (a.value == nullptr || b.value == nullptr) {
    // NULL sorts first; NULLs tie.
    return int{b.value == nullptr} - int{a.value == nullptr};
  }
  if (a.word != b.word) return a.word < b.word ? -1 : 1;
  return exact ? 0 : a.value->Compare(*b.value);
}

}  // namespace

void SortRows(std::vector<Row>* rows, bool distinct, size_t* comparisons) {
  const size_t n = rows->size();
  if (n < 2) return;  // std::sort would compare nothing
  const size_t width = rows->front().size();
  UNIQOPT_DCHECK(n <= UINT32_MAX);
  // Two passes row by row, each reading a row's values together: the
  // first finds the values and each column's type and string prefix,
  // the second the words.
  std::vector<SortKey> keys(n * width);
  std::vector<ColumnInfo> columns(width);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = (*rows)[i];
    UNIQOPT_DCHECK(row.size() == width);
    for (size_t c = 0; c < width; ++c) {
      keys[i * width + c].value = row[c].is_null() ? nullptr : &row[c];
      columns[c].Observe(row[c]);
    }
  }
  for (ColumnInfo& column : columns) column.Finish();
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < width; ++c) {
      const ColumnInfo& column = columns[c];
      SortKey& key = keys[i * width + c];
      key.word = column.uniform && key.value != nullptr
                     ? KeyWord(*key.value, column.common,
                               column.short_strings())
                     : 0;
    }
  }
  // Row::Compare of rows `a` and `b`, from their keys.
  auto compare = [&keys, &columns, width](uint32_t a, uint32_t b) {
    const SortKey* ka = keys.data() + a * width;
    const SortKey* kb = keys.data() + b * width;
    for (size_t c = 0; c < width; ++c) {
      int r = CompareKeys(ka[c], kb[c], columns[c].exact);
      if (r != 0) return r;
    }
    return 0;
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&compare, comparisons](uint32_t a, uint32_t b) {
              ++*comparisons;
              return compare(a, b) < 0;
            });
  if (distinct) {
    order.erase(std::unique(order.begin(), order.end(),
                            [&compare](uint32_t a, uint32_t b) {
                              return compare(a, b) == 0;
                            }),
                order.end());
  }
  std::vector<Row> sorted;
  sorted.reserve(order.size());
  for (uint32_t i : order) sorted.push_back(std::move((*rows)[i]));
  *rows = std::move(sorted);
}

}  // namespace uniqopt
