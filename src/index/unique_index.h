#ifndef UNIQOPT_INDEX_UNIQUE_INDEX_H_
#define UNIQOPT_INDEX_UNIQUE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "types/row.h"

namespace uniqopt {

/// The hash index behind one declared key of a table version: it files
/// each row's ordinal under the hash of the row's key projection.
///
/// The index holds no key values. Whoever probes it passes a predicate
/// that compares a candidate row's key with the probe (Find), so the
/// index serves the paper's null-equality operator `=!` (§2.1) exactly
/// as the row storage spells the key: NULL is one special value, and
/// Value::Hash hashes `=!`-equal values alike. The table version that
/// owns the index enforces uniqueness by probing before it files a key.
///
/// Entries live in hash shards (linear hashing: the shard count grows
/// and shrinks one shard at a time, staying between size/kShardEntries
/// and 2 * size/kShardEntries + 1), each a hash-sorted vector held by
/// shared_ptr. Copying an index copies only its shard directory; a
/// write clones just the shards its keys fall in, the first time it
/// changes one that another index still holds. Mutators return how many
/// entries they copied out of such shared shards.
class UniqueIndex {
 public:
  /// Average entries per shard: a clone copies ~2 KB of POD entries, and
  /// the directory a statement copies is size/128 pointers.
  static constexpr size_t kShardEntries = 128;

  explicit UniqueIndex(std::vector<size_t> key_columns);

  const std::vector<size_t>& key_columns() const { return key_columns_; }
  size_t size() const { return size_; }
  size_t num_shards() const { return shards_.size(); }

  /// Hash of `row`'s key projection (`row` is a full table row).
  uint64_t HashOfRow(const Row& row) const {
    return HashOfColumns(row, key_columns_);
  }
  /// Hash of a key already projected in key_columns() order; equal to
  /// HashOfRow of any row with that key.
  static uint64_t HashOfKey(const Row& key);
  /// Hash of the key that `row`'s `columns` spell, read in place: equal
  /// to HashOfKey(row.Project(columns)) without building that row.
  /// Joins hash their keys with it, so a probe of this index needs no
  /// projected key either.
  static uint64_t HashOfColumns(const Row& row,
                                const std::vector<size_t>& columns);

  /// The ordinal filed under `hash` for which `is_match(ordinal)` holds.
  template <typename IsMatch>
  std::optional<size_t> Find(uint64_t hash, const IsMatch& is_match) const {
    const Shard& shard = *shards_[ShardOf(hash)];
    for (size_t i = LowerBound(shard, hash);
         i < shard.size() && shard[i].hash == hash; ++i) {
      if (is_match(shard[i].ordinal)) return shard[i].ordinal;
    }
    return std::nullopt;
  }

  /// Files `ordinal` under `hash`; the caller has checked that no other
  /// row holds the key.
  size_t Insert(uint64_t hash, size_t ordinal);
  /// Unfiles `ordinal` from `hash`.
  size_t Erase(uint64_t hash, size_t ordinal);
  /// Re-files the entry (`hash`, `from`) as (`hash`, `to`).
  size_t Repoint(uint64_t hash, size_t from, size_t to);

 private:
  struct Entry {
    uint64_t hash;
    size_t ordinal;
  };
  using Shard = std::vector<Entry>;  // sorted by hash

  size_t ShardOf(uint64_t hash) const;
  /// Position of the first entry of `shard` whose hash is >= `hash`. The
  /// shard is chosen by low hash bits and the finalizer spreads the high
  /// ones evenly, so the search starts where the hash's top bits put it
  /// and walks: about one cache line, where a binary search over a
  /// 128-entry shard makes seven dependent loads.
  static size_t LowerBound(const Shard& shard, uint64_t hash) {
    size_t i = static_cast<size_t>(((hash >> 32) * shard.size()) >> 32);
    while (i > 0 && shard[i - 1].hash >= hash) --i;
    while (i < shard.size() && shard[i].hash < hash) ++i;
    return i;
  }
  /// Shard `s` for writing, cloned first when another index holds it.
  Shard& Mutable(size_t s, size_t* copied);
  /// The entry (`hash`, `ordinal`), which must be filed in `shard`.
  static Shard::iterator Locate(Shard& shard, uint64_t hash, size_t ordinal);
  /// Linear hashing: add one shard / fold the last one back.
  size_t Split();
  size_t Merge();

  std::vector<size_t> key_columns_;
  std::vector<std::shared_ptr<Shard>> shards_;
  size_t size_ = 0;
};

}  // namespace uniqopt

#endif  // UNIQOPT_INDEX_UNIQUE_INDEX_H_
