#ifndef UNIQOPT_OBS_METRICS_H_
#define UNIQOPT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace uniqopt {
namespace obs {

/// Monotonic counter. Lock-free; safe to increment from any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Settable (non-monotonic) value — current cache bytes, live entry
/// counts, and similar "what is it right now" measurements. Lock-free.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(uint64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Metric names use the dotted `<subsystem>.<object>.<measure>`
/// scheme. A name is valid when it maps onto a Prometheus-legal name
/// after the exporter replaces dots with underscores:
/// `[a-zA-Z_][a-zA-Z0-9_.:]*`.
bool IsValidMetricName(const std::string& name);

/// The closest valid name: every illegal character becomes '_' (with a
/// leading '_' when the first character is illegal). Identity on valid
/// names.
std::string CanonicalMetricName(const std::string& name);

/// Value/latency histogram with HDR-style log2 buckets (8 linear
/// sub-buckets per power of two ⇒ ≤ 12.5% relative quantile error), plus
/// exact count/sum/min/max. All updates are lock-free atomics, so
/// recording from concurrent operators or sessions needs no coordination.
class Histogram {
 public:
  static constexpr int kPrecisionBits = 3;  // 2^3 sub-buckets per octave
  static constexpr size_t kNumBuckets =
      (64 - kPrecisionBits + 1) << kPrecisionBits;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value; 0 when empty.
  uint64_t min() const;
  uint64_t max() const;
  double mean() const;

  /// Quantile estimate by nearest rank over the buckets; `q` in [0, 1].
  /// Returns the midpoint of the bucket holding the ranked observation
  /// (exact for values < 2^kPrecisionBits). 0 when empty.
  uint64_t Quantile(double q) const;

  void Reset();

  /// Seqlock-style reset detector for snapshot-diff consumers (the
  /// windowed time-series plane): Reset() bumps the generation once on
  /// entry and once on exit, so an even, unchanged generation across a
  /// snapshot proves no reset raced it — an odd value means a reset is
  /// in flight, a changed value means one landed mid-snapshot. A window
  /// that straddles a reset is discarded instead of reporting negative
  /// deltas.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Maps a value to its bucket and back (bucket midpoint). Exposed for
  /// tests of the bucketing error bound.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketMidpoint(size_t index);
  /// Largest value that lands in bucket `index` (the bucket's inclusive
  /// upper bound — the `le` boundary Prometheus exposition uses).
  static uint64_t BucketUpperBound(size_t index);

  /// Occupied buckets as (inclusive upper bound, cumulative count),
  /// ascending; the Prometheus exporter appends the implicit +Inf bucket
  /// (= count()). Empty histogram ⇒ empty vector.
  std::vector<std::pair<uint64_t, uint64_t>> CumulativeBuckets() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Point-in-time counter values, used for delta reporting (EXPLAIN
/// ANALYZE shows exactly the counters one execution moved).
using CounterSnapshot = std::map<std::string, uint64_t>;

/// Counters that changed between two snapshots, as `name: +delta` lines.
std::string CounterDeltaToText(const CounterSnapshot& before,
                               const CounterSnapshot& after,
                               const std::string& indent = "  ");

/// The changed counters as a map (new counters count from zero).
CounterSnapshot CounterDelta(const CounterSnapshot& before,
                             const CounterSnapshot& after);

/// Process-wide named-metric registry. Lookup is mutex-protected and
/// returns stable references (hot paths should cache them); the metric
/// objects themselves are lock-free.
///
/// Naming scheme (see DESIGN.md §Observability):
///   <subsystem>.<object>.<measure>   e.g. ims.dli.gnp_calls,
///   rewrite.rule.SubqueryToJoin.fired, optimizer.phase.bind.ns
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The default process-wide registry.
  static MetricsRegistry& Global();

  /// Finds or creates; the reference stays valid for the registry's
  /// lifetime. Names are validated on first registration: an invalid
  /// name (see IsValidMetricName) is canonicalized with a warning, so
  /// every registered metric exports cleanly.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  CounterSnapshot Counters() const;
  /// Point-in-time gauge values, name-sorted (same shape as Counters()).
  std::map<std::string, uint64_t> Gauges() const;
  std::vector<std::string> HistogramNames() const;
  /// The histogram registered under `name`, or nullptr. Unlike
  /// GetHistogram this never creates — exporters snapshot without
  /// mutating the registry.
  const Histogram* FindHistogram(const std::string& name) const;

  /// Zeroes every metric (names stay registered).
  void ResetAll();

  /// Human-readable dump, sorted by name. Machine-readable exports
  /// render from SnapshotMetrics (obs/export.h).
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Records wall time from construction to destruction, in nanoseconds,
/// into a histogram. For latency metrics on paths benchmarks gate on
/// (scripts/bench_compare.py compares the `.ns` histograms' p50).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram);
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  /// Nanoseconds elapsed so far.
  uint64_t ElapsedNs() const;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace uniqopt

#endif  // UNIQOPT_OBS_METRICS_H_
