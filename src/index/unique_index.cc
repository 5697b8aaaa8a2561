#include "index/unique_index.h"

#include <bit>
#include <iterator>
#include <utility>

#include "common/cow.h"
#include "common/hash.h"

namespace uniqopt {

namespace {

constexpr size_t kKeySeed = 0x345678;

/// Spreads the combined value hashes over all 64 bits: shards (and join
/// hash-table buckets) are chosen by the low bits, and Value::Hash of an
/// integer is the integer.
uint64_t Finish(uint64_t h) {
  h ^= h >> 33;
  h *= UINT64_C(0xff51afd7ed558ccd);
  h ^= h >> 33;
  h *= UINT64_C(0xc4ceb9fe1a85ec53);
  return h ^ (h >> 33);
}

/// Entries a rebuild of `shard` copies out of storage another index
/// still shares (a private shard is rebuilt without copying anything
/// that counts).
template <typename Shard>
size_t SharedEntries(const std::shared_ptr<Shard>& shard) {
  return shard.use_count() > 1 ? shard->size() : 0;
}

}  // namespace

UniqueIndex::UniqueIndex(std::vector<size_t> key_columns)
    : key_columns_(std::move(key_columns)) {
  shards_.push_back(std::make_shared<Shard>());
}

uint64_t UniqueIndex::HashOfColumns(const Row& row,
                                    const std::vector<size_t>& columns) {
  size_t seed = kKeySeed;
  for (size_t c : columns) HashCombine(&seed, row[c].Hash());
  return Finish(seed);
}

uint64_t UniqueIndex::HashOfKey(const Row& key) {
  size_t seed = kKeySeed;
  for (const Value& v : key.values()) HashCombine(&seed, v.Hash());
  return Finish(seed);
}

size_t UniqueIndex::ShardOf(uint64_t hash) const {
  // Shards [0, n) with 2^L <= n < 2^(L+1): a hash takes its low L+1
  // bits, or its low L bits when shard (low L+1 bits) is not split off
  // yet.
  const size_t n = shards_.size();
  const size_t half = std::bit_floor(n);
  const size_t s = hash & (2 * half - 1);
  return s < n ? s : s - half;
}

UniqueIndex::Shard& UniqueIndex::Mutable(size_t s, size_t* copied) {
  return Unshare(&shards_[s], shards_[s]->size() + 1, copied);
}

UniqueIndex::Shard::iterator UniqueIndex::Locate(Shard& shard, uint64_t hash,
                                                 size_t ordinal) {
  auto it = std::lower_bound(
      shard.begin(), shard.end(), hash,
      [](const Entry& e, uint64_t h) { return e.hash < h; });
  while (it->ordinal != ordinal) ++it;
  return it;
}

size_t UniqueIndex::Insert(uint64_t hash, size_t ordinal) {
  size_t copied = 0;
  Shard& shard = Mutable(ShardOf(hash), &copied);
  auto pos = std::upper_bound(
      shard.begin(), shard.end(), hash,
      [](uint64_t h, const Entry& e) { return h < e.hash; });
  shard.insert(pos, Entry{hash, ordinal});
  ++size_;
  if (size_ > shards_.size() * kShardEntries) copied += Split();
  return copied;
}

size_t UniqueIndex::Erase(uint64_t hash, size_t ordinal) {
  size_t copied = 0;
  Shard& shard = Mutable(ShardOf(hash), &copied);
  shard.erase(Locate(shard, hash, ordinal));
  --size_;
  if (shards_.size() > 1 &&
      2 * size_ < (shards_.size() - 1) * kShardEntries) {
    copied += Merge();
  }
  return copied;
}

size_t UniqueIndex::Repoint(uint64_t hash, size_t from, size_t to) {
  size_t copied = 0;
  Shard& shard = Mutable(ShardOf(hash), &copied);
  Locate(shard, hash, from)->ordinal = to;
  return copied;
}

size_t UniqueIndex::Split() {
  // The new shard n takes the entries of shard n - 2^L whose low L+1
  // hash bits spell n.
  const size_t fresh = shards_.size();
  const size_t half = std::bit_floor(fresh);
  const uint64_t mask = 2 * half - 1;
  auto stay = std::make_shared<Shard>();
  auto moved = std::make_shared<Shard>();
  for (const Entry& e : *shards_[fresh - half]) {
    ((e.hash & mask) == fresh ? moved : stay)->push_back(e);
  }
  const size_t copied = SharedEntries(shards_[fresh - half]);
  shards_[fresh - half] = std::move(stay);
  shards_.push_back(std::move(moved));
  return copied;
}

size_t UniqueIndex::Merge() {
  const size_t last = shards_.size() - 1;
  const size_t into = last - std::bit_floor(last);
  const Shard& a = *shards_[into];
  const Shard& b = *shards_[last];
  auto merged = std::make_shared<Shard>();
  merged->reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(*merged),
             [](const Entry& x, const Entry& y) { return x.hash < y.hash; });
  const size_t copied =
      SharedEntries(shards_[into]) + SharedEntries(shards_[last]);
  shards_[into] = std::move(merged);
  shards_.pop_back();
  return copied;
}

}  // namespace uniqopt
