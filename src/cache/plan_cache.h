#ifndef UNIQOPT_CACHE_PLAN_CACHE_H_
#define UNIQOPT_CACHE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace uniqopt {

struct PreparedQuery;  // uniqopt/optimizer.h; stored type-erased here

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace cache {

struct PlanCacheOptions {
  /// Master switch; a disabled cache turns Get/Put into no-ops so the
  /// optimizer needs no branching beyond one load.
  bool enabled = true;
  /// Maximum entries in the whole cache.
  size_t capacity = 1024;
  /// Byte budget of the whole cache, over the caller-supplied sizes.
  size_t byte_budget = 64ull << 20;
};

struct LruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t entries = 0;  ///< current
  uint64_t bytes = 0;    ///< current, approximate
};

/// Fingerprint-keyed cache of immutable prepared queries. A hit returns
/// the `shared_ptr<const PreparedQuery>` stored by some earlier prepare
/// — plans, rewrite evidence and the verification report included — so
/// the caller skips parse, bind, Algorithm 1, rewriting *and*
/// verification. The caller computes each entry's one key (the
/// optimizer's is Optimizer::CacheKey: FNV-1a over the exact SQL bytes,
/// the catalog version and the mode bits) and confirms a hit: the cache
/// never looks inside an entry, and a 64-bit match alone proves nothing
/// (PrepareShared compares the entry's SQL with the request's). Keys
/// mix in the catalog version, so any catalog bump makes every older key
/// unreachable; Get also purges the superseded entries the first time
/// it sees a newer version.
///
/// One mutex guards an exact LRU: a recency list (front = most recent)
/// plus a hash index into it, so a hit, an insert and each eviction are
/// O(1). `capacity` and `byte_budget` bound the whole cache; an entry
/// larger than the budget is still admitted, alone. Entries leave the
/// cache under the lock but are destroyed after it is released.
///
/// Event counts are mirrored into the global metrics registry
/// (cache.hits / cache.misses / cache.evictions / cache.invalidations
/// as counters, cache.bytes / cache.entries as gauges) so `\metrics`,
/// `/metrics` and bench --metrics-json all see the cache.
class PlanCache {
 public:
  using EntryPtr = std::shared_ptr<const PreparedQuery>;

  explicit PlanCache(PlanCacheOptions options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Cache lookup under the caller's current catalog version; a hit
  /// becomes the most recently used entry. Purges entries from older
  /// versions when the version moved since the last call (they can
  /// never be served again).
  EntryPtr Get(uint64_t fingerprint, uint64_t catalog_version);

  /// Stores (or replaces) a prepared query under its fingerprint, then
  /// evicts least recently used entries while the cache is over its
  /// capacity or byte budget. `bytes` is the caller's size estimate.
  void Put(uint64_t fingerprint, uint64_t catalog_version, EntryPtr entry,
           size_t bytes);

  void Clear();

  LruStats Stats() const;
  bool enabled() const { return options_.enabled; }
  const PlanCacheOptions& options() const { return options_; }

  /// `\cache` rendering: configuration plus live stats.
  std::string ToText() const;

 private:
  struct Slot {
    uint64_t fingerprint = 0;
    uint64_t version = 0;
    size_t bytes = 0;
    EntryPtr entry;
  };
  using SlotList = std::list<Slot>;

  /// Moves `it` from the cache into `dropped`; the caller destroys
  /// `dropped` once it has released mu_.
  void RemoveLocked(SlotList::iterator it, SlotList* dropped);
  void PublishGaugesLocked();

  const PlanCacheOptions options_;
  mutable std::mutex mu_;
  // All guarded by mu_.
  SlotList lru_;
  std::unordered_map<uint64_t, SlotList::iterator> index_;
  uint64_t newest_version_ = 0;
  LruStats counts_;
  // Interned registry handles — per-event cost is the metric's atomics.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* invalidations_;
  obs::Gauge* bytes_;
  obs::Gauge* entries_;
};

}  // namespace cache
}  // namespace uniqopt

#endif  // UNIQOPT_CACHE_PLAN_CACHE_H_
