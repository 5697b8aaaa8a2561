#ifndef UNIQOPT_OBS_EXPORT_H_
#define UNIQOPT_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace uniqopt {
namespace obs {

/// One exported metric in the stable export schema. Everything that
/// leaves the process — Prometheus text, `--metrics-json` dumps, the
/// HTTP endpoint — renders from this struct, so baselines and exporters
/// cannot drift apart.
struct MetricSample {
  enum class Type { kCounter, kGauge, kHistogram };

  std::string name;  ///< internal dotted name (ims.dli.gnp_calls)
  Type type = Type::kCounter;

  // Counter / gauge.
  uint64_t value = 0;

  // Histogram.
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  /// Occupied buckets as (inclusive upper bound, cumulative count),
  /// ascending. The +Inf bucket is implicit (== count).
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

/// Point-in-time snapshot of every metric in `registry`, sorted by name
/// (counters, gauges and histograms interleaved).
std::vector<MetricSample> SnapshotMetrics(const MetricsRegistry& registry);

/// The Prometheus-legal exposition name for an internal dotted name:
/// dots map to underscores, anything else illegal to '_'.
std::string PrometheusName(const std::string& name);

/// Escapes a label value for the text exposition format: backslash to
/// `\\`, double quote to `\"`, line feed to `\n` (the three characters
/// the Prometheus spec requires escaping inside label values).
std::string PrometheusLabelEscape(const std::string& value);

/// Escapes `# HELP` docstring text: backslash to `\\` and line feed to
/// `\n` (quotes are legal in HELP text and stay raw).
std::string PrometheusHelpEscape(const std::string& text);

/// Prometheus text exposition format (version 0.0.4): `# HELP` /
/// `# TYPE` headers, `<name>_total` counters, bare-sample gauges,
/// histograms with cumulative `_bucket{le=...}` series plus `_sum` /
/// `_count`.
std::string ToPrometheusText(const std::vector<MetricSample>& samples);

/// Structural lint of a Prometheus text page: legal metric names, every
/// sample preceded by its `# TYPE` *and* `# HELP`, numeric values,
/// histogram buckets cumulative and terminated by `le="+Inf"` matching
/// `_count`. Label parsing is escape-aware: `\"` and `\\` inside a
/// quoted label value do not terminate it, and a `}` inside a value
/// does not close the label set.
Status LintPrometheusText(const std::string& text);

/// The stable JSON schema, one object per metric:
///   {"metrics": [
///     {"name": "...", "type": "counter", "value": 3},
///     {"name": "...", "type": "gauge", "value": 7},
///     {"name": "...", "type": "histogram", "count": ..., "sum": ...,
///      "min": ..., "max": ..., "mean": ..., "p50": ..., "p90": ...,
///      "p99": ..., "buckets": [{"le": 1023, "count": 4}, ...]}]}
std::string ToMetricsJson(const std::vector<MetricSample>& samples);

/// Minimal RFC 8259 syntax check (objects, arrays, strings, numbers,
/// literals). Used by tests to assert exported JSON actually parses and
/// by the bench gate before trusting a dump.
Status ValidateJson(const std::string& text);

/// JSON string-body escaping ('"', '\\', control characters).
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace uniqopt

#endif  // UNIQOPT_OBS_EXPORT_H_
