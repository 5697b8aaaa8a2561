#include "cache/plan_cache.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace uniqopt {
namespace cache {

PlanCache::PlanCache(PlanCacheOptions options) : options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_ = &reg.GetCounter("cache.hits");
  misses_ = &reg.GetCounter("cache.misses");
  evictions_ = &reg.GetCounter("cache.evictions");
  invalidations_ = &reg.GetCounter("cache.invalidations");
  bytes_ = &reg.GetGauge("cache.bytes");
  entries_ = &reg.GetGauge("cache.entries");
}

void PlanCache::RemoveLocked(SlotList::iterator it, SlotList* dropped) {
  counts_.bytes -= it->bytes;
  --counts_.entries;
  index_.erase(it->fingerprint);
  dropped->splice(dropped->end(), lru_, it);
}

void PlanCache::PublishGaugesLocked() {
  bytes_->Set(counts_.bytes);
  entries_->Set(counts_.entries);
}

PlanCache::EntryPtr PlanCache::Get(uint64_t fingerprint,
                                   uint64_t catalog_version) {
  if (!options_.enabled) return nullptr;
  SlotList dropped;
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_version > newest_version_) {
      // Lazy invalidation: the first lookup under a newer catalog
      // version purges the entries no key can reach any more.
      newest_version_ = catalog_version;
      for (auto it = lru_.begin(); it != lru_.end();) {
        auto next = std::next(it);
        if (it->version < catalog_version) RemoveLocked(it, &dropped);
        it = next;
      }
      counts_.invalidations += dropped.size();
      if (!dropped.empty()) PublishGaugesLocked();
    }
    auto found = index_.find(fingerprint);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
      entry = found->second->entry;
      ++counts_.hits;
    } else {
      ++counts_.misses;
    }
  }
  if (!dropped.empty()) invalidations_->Increment(dropped.size());
  (entry != nullptr ? hits_ : misses_)->Increment();
  return entry;
}

void PlanCache::Put(uint64_t fingerprint, uint64_t catalog_version,
                    EntryPtr entry, size_t bytes) {
  if (!options_.enabled || entry == nullptr) return;
  SlotList node;
  node.push_back(Slot{fingerprint, catalog_version, bytes, std::move(entry)});
  SlotList dropped;
  size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto found = index_.find(fingerprint);
    if (found != index_.end()) RemoveLocked(found->second, &dropped);
    lru_.splice(lru_.begin(), node);
    index_.emplace(fingerprint, lru_.begin());
    counts_.bytes += bytes;
    ++counts_.entries;
    // The new entry sits at the front, so it is never its own victim.
    while (lru_.size() > 1 && (lru_.size() > options_.capacity ||
                               counts_.bytes > options_.byte_budget)) {
      RemoveLocked(std::prev(lru_.end()), &dropped);
      ++evicted;
    }
    counts_.evictions += evicted;
    PublishGaugesLocked();
  }
  if (evicted > 0) evictions_->Increment(evicted);
}

void PlanCache::Clear() {
  SlotList dropped;
  std::lock_guard<std::mutex> lock(mu_);
  dropped.swap(lru_);
  index_.clear();
  counts_.entries = 0;
  counts_.bytes = 0;
  PublishGaugesLocked();
}

LruStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string PlanCache::ToText() const {
  LruStats s = Stats();
  std::string out = "plan cache: ";
  out += options_.enabled ? "enabled" : "disabled";
  out += " (capacity " + std::to_string(options_.capacity) +
         " entries, budget " + std::to_string(options_.byte_budget) +
         " bytes)\n";
  uint64_t lookups = s.hits + s.misses;
  char ratio[32] = "n/a";
  if (lookups > 0) {
    std::snprintf(ratio, sizeof(ratio), "%.1f%%",
                  100.0 * static_cast<double>(s.hits) /
                      static_cast<double>(lookups));
  }
  out += "  hits=" + std::to_string(s.hits) +
         " misses=" + std::to_string(s.misses) + " (hit ratio " + ratio +
         ")\n";
  out += "  entries=" + std::to_string(s.entries) +
         " bytes=" + std::to_string(s.bytes) +
         " evictions=" + std::to_string(s.evictions) +
         " invalidations=" + std::to_string(s.invalidations) + "\n";
  return out;
}

}  // namespace cache
}  // namespace uniqopt
