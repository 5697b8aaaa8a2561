#ifndef UNIQOPT_COMMON_HASH_H_
#define UNIQOPT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace uniqopt {

/// Combines a hash value into a running seed (boost::hash_combine flavor,
/// 64-bit). Used for hashing rows under SQL's null-equality semantics.
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + UINT64_C(0x9e3779b97f4a7c15) + (*seed << 12) + (*seed >> 4);
}

/// 64-bit FNV-1a over `s`, continuing from `seed` (chainable). Stable
/// across runs and builds, unlike std::hash: plan hashes, query-class
/// fingerprints and cache keys are compared across processes.
inline uint64_t Fnv1a(std::string_view s,
                      uint64_t seed = UINT64_C(0xcbf29ce484222325)) {
  for (char c : s) {
    seed ^= static_cast<unsigned char>(c);
    seed *= UINT64_C(0x100000001b3);
  }
  return seed;
}

/// Folds a 64-bit value (catalog version, option salt) into `seed` by
/// hashing its little-endian bytes with the same FNV-1a stream.
inline uint64_t Fnv1aMix(uint64_t seed, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return Fnv1a(std::string_view(bytes, sizeof(bytes)), seed);
}

}  // namespace uniqopt

#endif  // UNIQOPT_COMMON_HASH_H_
