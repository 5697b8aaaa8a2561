#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace reqbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + UINT64_C(0x9e3779b97f4a7c15) + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = UINT64_C(0xcbf29ce484222325);
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= UINT64_C(0x100000001b3);
  }
  return h;
}

uint64_t Scramble(uint64_t x) {
  x ^= x >> 33;
  x *= UINT64_C(0xff51afd7ed558ccd);
  x ^= x >> 33;
  x *= UINT64_C(0xc4ceb9fe1a85ec53);
  x ^= x >> 33;
  return x;
}

uint64_t HashRow(const uniqopt::Row& row) {
  using uniqopt::TypeId;
  uint64_t h = row.size();
  for (const uniqopt::Value& v : row.values()) {
    if (v.is_null()) {
      h = Mix(h, 0x6e756c6c);
      continue;
    }
    switch (v.type()) {
      case TypeId::kInteger:
        h = Mix(h, static_cast<uint64_t>(v.AsInteger()));
        break;
      case TypeId::kDouble:
        h = Mix(h, static_cast<uint64_t>(std::llround(v.AsDouble() * 1e6)));
        break;
      case TypeId::kString:
        h = Mix(h, HashBytes(v.AsString()));
        break;
      case TypeId::kBoolean:
        h = Mix(h, HashBytes(v.ToString()));
        break;
    }
  }
  return Scramble(h);
}

}  // namespace

bool ResultDigest::operator==(const ResultDigest& other) const {
  if (set_mode != other.set_mode) return false;
  if (set_mode) return distinct == other.distinct;
  return rows == other.rows && sum == other.sum &&
         sum_mixed == other.sum_mixed;
}

ResultDigest Digest(const std::vector<uniqopt::Row>& rows, bool set_mode) {
  ResultDigest d;
  d.set_mode = set_mode;
  d.rows = rows.size();
  if (set_mode) d.distinct.reserve(rows.size());
  for (const uniqopt::Row& row : rows) {
    const uint64_t h = HashRow(row);
    if (set_mode) {
      d.distinct.push_back(h);
    } else {
      d.sum += h;
      d.sum_mixed += Scramble(h ^ UINT64_C(0x5bd1e995));
    }
  }
  if (set_mode) {
    std::sort(d.distinct.begin(), d.distinct.end());
    d.distinct.erase(std::unique(d.distinct.begin(), d.distinct.end()),
                     d.distinct.end());
  }
  return d;
}

bool SameRow(const uniqopt::Row& a, const uniqopt::Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const uniqopt::Value& x = a[i];
    const uniqopt::Value& y = b[i];
    if (!x.is_null() && !y.is_null() &&
        x.type() == uniqopt::TypeId::kDouble &&
        y.type() == uniqopt::TypeId::kDouble) {
      const double scale = std::max(1.0, std::fabs(x.AsDouble()));
      if (std::fabs(x.AsDouble() - y.AsDouble()) > 1e-9 * scale) return false;
      continue;
    }
    if (!(x == y)) return false;
  }
  return true;
}

}  // namespace reqbench
