#ifndef UNIQOPT_OBS_RECORDER_H_
#define UNIQOPT_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace uniqopt {
namespace obs {

/// The part of a QueryRecord that is fixed before the query runs: what
/// runs and what the optimizer decided (and why). Built once per
/// prepared entry and shared, immutable, by the record of every
/// execution of it, so recording a cached query copies one pointer; the
/// gateway, the navigator and failure records build their own.
struct PreparedRecord {
  std::string source;       ///< "optimizer", "ims.gateway", "oodb.nav"
  std::string query;        ///< SQL text or compiled-program summary
  /// FNV-1a over the optimized plan's canonical printed form; equal
  /// hashes ⇒ structurally identical plans (cache keys, \history dedup).
  uint64_t plan_hash = 0;
  /// Per-phase latencies before execution, pipeline order (parse, bind,
  /// analyze, rewrite, cost, verify, lower — whichever ran). A plan-cache
  /// hit shares the original cold prepare's timings.
  std::vector<std::pair<std::string, uint64_t>> phase_ns;
  /// Rewrite verdicts: (rule name, description) per applied rewrite.
  std::vector<std::pair<std::string, std::string>> rewrites;
  /// One-line summary of the uniqueness analysis / ProofTrace verdict.
  std::string proof_summary;
  /// One-line rollup of the post-optimization verifier (empty when the
  /// verifier did not run for this query).
  std::string verify_summary;
  uint64_t verify_violations = 0;
  /// Equivalence-prover verdict tallies for this query's rewrites (all
  /// zero when the prover did not run or nothing was rewritten).
  uint64_t equiv_proven = 0;
  uint64_t equiv_unproven = 0;
  uint64_t equiv_refuted = 0;
  /// Near-miss advisor lines ("table: fact (goal)") for proofs that
  /// almost fired on this query; empty when every proof succeeded.
  std::vector<std::string> near_misses;
};

/// Everything worth keeping about one query after the fact: the shared
/// PreparedRecord plus what this run cost. One record per
/// Optimizer::Execute / gateway program / navigation strategy.
struct QueryRecord {
  uint64_t id = 0;          ///< assigned by the recorder, monotonically
  /// What ran and why; a null pointer renders as an empty part.
  std::shared_ptr<const PreparedRecord> prepared;
  /// Whether preparation was served from the plan cache (the prepared
  /// phases are then the original cold prepare's timings) — \slow and
  /// \history separate cold from cache-served prepares on it.
  bool cache_hit = false;
  /// This run's `execute` phase, listed after the prepared phases;
  /// unset when the query failed before it ran.
  std::optional<uint64_t> execute_ns;
  uint64_t rows_out = 0;
  uint64_t rows_scanned = 0;
  /// Per-operator profile text when the run was metered (EXPLAIN
  /// ANALYZE); empty otherwise.
  std::string profile_text;
  bool ok = true;
  std::string error;        ///< status text when !ok
  uint64_t total_ns = 0;    ///< wall time, prepared phases + execute
  /// Wall-clock time of recording, microseconds since the Unix epoch.
  /// Assigned by the recorder when left 0 (callers may pre-stamp).
  uint64_t wall_time_us = 0;
  /// Monotonic (steady-clock) nanoseconds at recording. The windowed
  /// time-series plane anchors window assignment and exemplar lookup on
  /// this, so neither depends on wall-clock jumps. Assigned by the
  /// recorder when left 0; exported as `steady_ns` in JSON.
  uint64_t steady_ns = 0;

  std::string ToString() const;
};

/// Canonical plan fingerprint used for QueryRecord::plan_hash.
uint64_t FingerprintPlanText(const std::string& canonical_plan_text);

/// Bounded, thread-safe flight recorder: a ring buffer of the last
/// `capacity` QueryRecords. Writers (optimizer, gateway and navigator
/// sessions on any thread) append; readers (\history, the /queries
/// endpoint, tests) copy out a consistent snapshot. Records past
/// capacity overwrite the oldest — the recorder never grows and never
/// blocks recording on readers beyond the buffer mutex.
///
/// A configurable slow-query threshold reports offenders through the
/// leveled logger (UNIQOPT_LOG(kWarning)) the moment they are recorded.
class QueryRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryRecorder(size_t capacity = kDefaultCapacity);
  QueryRecorder(const QueryRecorder&) = delete;
  QueryRecorder& operator=(const QueryRecorder&) = delete;

  /// The default process-wide recorder (what the facade layers feed).
  static QueryRecorder& Global();

  /// Appends a record and returns its assigned id (callers hand the id
  /// to the time-series plane as the window exemplar). Thread-safe.
  uint64_t Record(QueryRecord record);

  /// Oldest-first copy of the retained records.
  std::vector<QueryRecord> History() const;

  /// Retained records at or above the slow threshold, oldest first.
  std::vector<QueryRecord> SlowQueries() const;

  /// Total records seen since construction or the last Clear()
  /// (retained or evicted).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Re-bounds the buffer, keeping the newest records. `capacity` >= 1.
  void SetCapacity(size_t capacity);

  /// Queries slower than this (total_ns) are logged on arrival and
  /// surface in SlowQueries(). 0 disables (the default).
  void SetSlowThresholdNs(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  void Clear();

  /// `\history` rendering: one block per record, oldest first.
  std::string ToText() const;
  /// {"queries": [{...}, ...]} — the /queries endpoint payload.
  std::string ToJson() const;

 private:
  std::vector<QueryRecord> SnapshotLocked() const;  // requires mu_

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<QueryRecord> ring_;   // ring_[i], i < size; oldest at head_
  size_t head_ = 0;                 // index of the oldest record
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> slow_threshold_ns_{0};
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace obs
}  // namespace uniqopt

#endif  // UNIQOPT_OBS_RECORDER_H_
