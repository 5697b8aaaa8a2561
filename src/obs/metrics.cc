#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <cmath>

#include "common/logging.h"

namespace uniqopt {
namespace obs {

namespace {

bool IsMetricNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
    return true;
  }
  if (first) return false;
  return (c >= '0' && c <= '9') || c == '.' || c == ':';
}

}  // namespace

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (!IsMetricNameChar(name[i], i == 0)) return false;
  }
  return true;
}

std::string CanonicalMetricName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out = name;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!IsMetricNameChar(out[i], /*first=*/false)) out[i] = '_';
  }
  if (!IsMetricNameChar(out[0], /*first=*/true)) out[0] = '_';
  return out;
}

namespace {

/// Lock-free monotone update: keep the extremum.
void AtomicMin(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value < cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value > cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t Histogram::BucketIndex(uint64_t value) {
  constexpr int P = kPrecisionBits;
  if (value < (uint64_t{1} << P)) return static_cast<size_t>(value);
  int k = 63 - std::countl_zero(value);  // position of the leading 1; k >= P
  uint64_t sub = (value >> (k - P)) & ((uint64_t{1} << P) - 1);
  return ((static_cast<size_t>(k) - P + 1) << P) + static_cast<size_t>(sub);
}

uint64_t Histogram::BucketMidpoint(size_t index) {
  constexpr int P = kPrecisionBits;
  if (index < (size_t{1} << P)) return index;  // exact range
  int k = static_cast<int>(index >> P) + P - 1;
  uint64_t sub = index & ((uint64_t{1} << P) - 1);
  uint64_t low = ((uint64_t{1} << P) + sub) << (k - P);
  uint64_t width = uint64_t{1} << (k - P);
  return low + width / 2;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  constexpr int P = kPrecisionBits;
  if (index < (size_t{1} << P)) return index;  // exact range
  int k = static_cast<int>(index >> P) + P - 1;
  uint64_t sub = index & ((uint64_t{1} << P) - 1);
  uint64_t low = ((uint64_t{1} << P) + sub) << (k - P);
  uint64_t width = uint64_t{1} << (k - P);
  return low + width - 1;
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::CumulativeBuckets()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  uint64_t running = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    running += n;
    out.emplace_back(BucketUpperBound(i), running);
  }
  return out;
}

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the ceil(q*n)-th observation (1-based). The clamps
  // make the n == 1 case exact for every q and keep q = 0 well-defined.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      uint64_t mid = BucketMidpoint(i);
      // Clamp into the observed range so q=0 / q=1 report exact ends.
      if (mid < min()) mid = min();
      if (mid > max()) mid = max();
      return mid;
    }
  }
  return max();
}

void Histogram::Reset() {
  // Odd generation = reset in flight; +2 overall per reset. Snapshot
  // consumers re-read the generation around their reads and discard the
  // interval when it moved or is odd.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::string CounterDeltaToText(const CounterSnapshot& before,
                               const CounterSnapshot& after,
                               const std::string& indent) {
  std::string out;
  for (const auto& [name, delta] : CounterDelta(before, after)) {
    out += indent + name + ": +" + std::to_string(delta) + "\n";
  }
  return out;
}

CounterSnapshot CounterDelta(const CounterSnapshot& before,
                             const CounterSnapshot& after) {
  CounterSnapshot delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t prev = it == before.end() ? 0 : it->second;
    if (value > prev) delta[name] = value - prev;
  }
  return delta;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// Registration-time name check: an invalid name is canonicalized (and
/// warned about once) instead of poisoning the export plane.
std::string ValidatedName(const std::string& name) {
  if (IsValidMetricName(name)) return name;
  std::string fixed = CanonicalMetricName(name);
  UNIQOPT_LOG(kWarning) << "invalid metric name \"" << name
                        << "\" registered as \"" << fixed << "\"";
  return fixed;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(ValidatedName(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(ValidatedName(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(ValidatedName(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

CounterSnapshot MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  CounterSnapshot out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, uint64_t> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, hist] : histograms_) out.push_back(name);
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += name + " = " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += name + " = " + std::to_string(gauge->value()) + " (gauge)\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + " = {count=" + std::to_string(h->count()) +
           " min=" + std::to_string(h->min()) +
           " p50=" + std::to_string(h->Quantile(0.5)) +
           " p90=" + std::to_string(h->Quantile(0.9)) +
           " p99=" + std::to_string(h->Quantile(0.99)) +
           " max=" + std::to_string(h->max()) + "}\n";
  }
  return out;
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(SteadyNowNs()) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (histogram_ != nullptr) histogram_->Record(ElapsedNs());
}

uint64_t ScopedLatencyTimer::ElapsedNs() const {
  return SteadyNowNs() - start_ns_;
}

}  // namespace obs
}  // namespace uniqopt
