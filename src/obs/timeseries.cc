#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/sentinel.h"

namespace uniqopt {
namespace obs {

namespace {

/// ASCII sparkline ramp, lowest to highest.
constexpr char kSparkRamp[] = " .:-=+*#%@";
constexpr size_t kSparkLevels = sizeof(kSparkRamp) - 2;  // highest index

/// Sets `w->p50` and `w->p99` to the midpoint of the bucket holding
/// each rank. `buckets` lists (bucket index, samples) in ascending index
/// order, `count` samples in all (at least one).
void SetWindowPercentiles(
    const std::vector<std::pair<size_t, uint64_t>>& buckets, uint64_t count,
    WindowStats* w) {
  uint64_t rank50 = (count + 1) / 2;
  uint64_t rank99 = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(0.99 * static_cast<double>(count))));
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    uint64_t mid = Histogram::BucketMidpoint(index);
    if (seen < rank50 && seen + n >= rank50) w->p50 = mid;
    if (seen < rank99 && seen + n >= rank99) w->p99 = mid;
    seen += n;
  }
}

/// The representative per-window value a sparkline plots, by kind.
double WindowPlotValue(SeriesKind kind, const WindowStats& w) {
  switch (kind) {
    case SeriesKind::kCounter:
      return w.rate;
    case SeriesKind::kGauge:
      return static_cast<double>(w.value);
    case SeriesKind::kRatio:
      return w.ratio;
    case SeriesKind::kHistogram:
    case SeriesKind::kClass:
      return static_cast<double>(w.p50);
  }
  return 0.0;
}

std::string FormatDouble(double v) {
  char buf[40];
  if (v == 0.0) return "0";
  if (std::fabs(v) >= 1000.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogram:
      return "histogram";
    case SeriesKind::kClass:
      return "class";
    case SeriesKind::kRatio:
      return "ratio";
  }
  return "unknown";
}

uint64_t SteadyWindowClock::NowNs() { return SteadyNowNs(); }

void TimeSeriesPlane::Series::Push(WindowStats w, size_t cap) {
  if (slots.size() < cap) {
    slots.push_back(std::move(w));
  } else {
    slots[head] = std::move(w);
    head = (head + 1) % cap;
  }
}

std::vector<WindowStats> TimeSeriesPlane::Series::Ordered() const {
  std::vector<WindowStats> out;
  out.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    out.push_back(slots[(head + i) % slots.size()]);
  }
  return out;
}

TimeSeriesPlane::TimeSeriesPlane(size_t windows_per_series,
                                 WindowClock* clock,
                                 MetricsRegistry* registry)
    : windows_per_series_(windows_per_series == 0 ? 1 : windows_per_series),
      clock_(clock != nullptr ? clock : &default_clock_),
      registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {
}

TimeSeriesPlane::~TimeSeriesPlane() { StopTicker(); }

TimeSeriesPlane& TimeSeriesPlane::Global() {
  static TimeSeriesPlane* plane = new TimeSeriesPlane();
  return *plane;
}

void TimeSeriesPlane::AttachSentinel(Sentinel* sentinel) {
  sentinel_.store(sentinel, std::memory_order_release);
}

Sentinel* TimeSeriesPlane::sentinel() const {
  return sentinel_.load(std::memory_order_acquire);
}

TimeSeriesPlane::Series* TimeSeriesPlane::FindOrCreateSeriesLocked(
    const std::string& name, SeriesKind kind, uint64_t class_fp) {
  auto it = series_.find(name);
  if (it != series_.end()) return &it->second;
  if (series_.size() >= kMaxSeries) {
    static Counter& dropped =
        MetricsRegistry::Global().GetCounter("timeseries.dropped");
    dropped.Increment();
    return nullptr;
  }
  Series& s = series_[name];
  s.kind = kind;
  s.class_fingerprint = class_fp;
  return &s;
}

void TimeSeriesPlane::RecordClassSample(uint64_t class_fingerprint,
                                        const char* metric, uint64_t value,
                                        uint64_t record_id,
                                        uint64_t plan_hash) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(class_fingerprint, std::string(metric));
  auto it = class_acc_.find(key);
  if (it == class_acc_.end()) {
    // Bound the tracked class count by distinct fingerprints, not by
    // (class, metric) pairs, so one class can grow both its metrics.
    size_t distinct = 0;
    uint64_t last_fp = 0;
    bool first = true;
    bool seen = false;
    for (const auto& [k, acc] : class_acc_) {
      (void)acc;
      if (first || k.first != last_fp) ++distinct;
      first = false;
      last_fp = k.first;
      seen = seen || k.first == class_fingerprint;
    }
    if (!seen && distinct >= kMaxClasses) {
      static Counter& dropped =
          MetricsRegistry::Global().GetCounter("timeseries.dropped");
      dropped.Increment();
      return;
    }
    it = class_acc_.emplace(std::move(key), ClassAccumulator{}).first;
  }
  ClassAccumulator& acc = it->second;
  if (acc.buckets.empty()) acc.buckets.assign(Histogram::kNumBuckets, 0);
  if (acc.count == 0 || value < acc.min) acc.min = value;
  if (acc.count == 0 || value > acc.max) acc.max = value;
  ++acc.count;
  acc.sum += value;
  ++acc.buckets[Histogram::BucketIndex(value)];
  if (value >= acc.worst.value) {
    acc.worst.value = value;
    acc.worst.record_id = record_id;
    acc.worst.fingerprint = plan_hash;
  }
}

void TimeSeriesPlane::Tick() {
  static Counter& tick_counter =
      MetricsRegistry::Global().GetCounter("timeseries.ticks");
  tick_counter.Increment();

  std::vector<SeriesObservation> observations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t now = clock_->NowNs();
    if (window_start_ns_ == 0) window_start_ns_ = now > 0 ? now - 1 : 0;
    if (now <= window_start_ns_) now = window_start_ns_ + 1;
    const uint64_t start = window_start_ns_;
    window_start_ns_ = now;
    const uint64_t window_index =
        ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double window_secs =
        static_cast<double>(now - start) / 1e9;

    WindowStats base;
    base.window = window_index;
    base.start_ns = start;
    base.end_ns = now;

    auto emit = [&](Series* s, const std::string& name, WindowStats w) {
      if (s == nullptr) return;
      s->Push(w, windows_per_series_);
      // Only meaningful windows go to the sentinel: valid, and either
      // carrying samples (histogram/class), or a defined ratio, or a
      // counter/gauge value.
      bool observable = w.valid;
      if (s->kind == SeriesKind::kHistogram ||
          s->kind == SeriesKind::kClass) {
        observable = observable && w.count > 0;
      }
      if (observable) {
        SeriesObservation obs;
        obs.series = name;
        obs.kind = s->kind;
        obs.class_fingerprint = s->class_fingerprint;
        obs.stats = std::move(w);
        observations.push_back(std::move(obs));
      }
    };

    // Counters: per-window deltas and rates. A counter first seen this
    // tick only establishes its baseline (a cumulative-since-start value
    // is not a window delta).
    CounterSnapshot counters = registry_->Counters();
    std::map<std::string, uint64_t> deltas;
    for (const auto& [name, value] : counters) {
      auto prev = prev_counters_.find(name);
      if (prev == prev_counters_.end()) {
        prev_counters_[name] = value;
        continue;
      }
      uint64_t delta = value >= prev->second ? value - prev->second : 0;
      prev->second = value;
      deltas[name] = delta;
      WindowStats w = base;
      w.count = delta;
      w.value = delta;
      w.rate = static_cast<double>(delta) / window_secs;
      emit(FindOrCreateSeriesLocked(name, SeriesKind::kCounter, 0), name,
           std::move(w));
    }

    // Rewrite firing ratios, synthesized from the counter deltas: only
    // windows where the rule was actually considered produce a point.
    for (const auto& [name, fired] : deltas) {
      constexpr const char kFired[] = ".fired";
      if (name.size() <= sizeof(kFired) - 1 ||
          name.compare(name.size() - (sizeof(kFired) - 1),
                       sizeof(kFired) - 1, kFired) != 0) {
        continue;
      }
      std::string basename = name.substr(0, name.size() - (sizeof(kFired) - 1));
      auto considered = deltas.find(basename + ".considered");
      if (considered == deltas.end() || considered->second == 0) continue;
      std::string ratio_name = basename + ".firing_ratio";
      WindowStats w = base;
      w.count = considered->second;
      w.ratio = static_cast<double>(fired) /
                static_cast<double>(considered->second);
      emit(FindOrCreateSeriesLocked(ratio_name, SeriesKind::kRatio, 0),
           ratio_name, std::move(w));
    }

    // Gauges: last value wins.
    for (const auto& [name, value] : registry_->Gauges()) {
      WindowStats w = base;
      w.value = value;
      emit(FindOrCreateSeriesLocked(name, SeriesKind::kGauge, 0), name,
           std::move(w));
    }

    // Histograms: snapshot-diff the cumulative buckets into per-window
    // bucket counts, guarded by the generation counter so a Reset()
    // inside the window invalidates it instead of going negative.
    for (const std::string& name : registry_->HistogramNames()) {
      const Histogram* h = registry_->FindHistogram(name);
      if (h == nullptr) continue;
      uint64_t gen_before = h->generation();
      uint64_t count = h->count();
      uint64_t sum = h->sum();
      std::vector<std::pair<uint64_t, uint64_t>> cumulative =
          h->CumulativeBuckets();
      uint64_t gen_after = h->generation();
      std::map<uint64_t, uint64_t> bucket_counts;
      uint64_t running = 0;
      for (const auto& [bound, cum] : cumulative) {
        bucket_counts[bound] = cum - running;
        running = cum;
      }
      auto shadow_it = hist_shadows_.find(name);
      if (shadow_it == hist_shadows_.end()) {
        HistogramShadow shadow;
        shadow.generation = gen_after;
        shadow.count = count;
        shadow.sum = sum;
        shadow.bucket_counts = std::move(bucket_counts);
        hist_shadows_[name] = std::move(shadow);
        continue;  // baseline only
      }
      HistogramShadow& shadow = shadow_it->second;
      // A torn snapshot (reset in flight: odd generation, or the
      // generation moved mid-snapshot or since the last window) cannot
      // be diffed against the shadow.
      bool straddled = gen_before != gen_after || gen_before % 2 != 0 ||
                       gen_before != shadow.generation;
      WindowStats w = base;
      if (straddled) {
        w.valid = false;
      } else {
        uint64_t delta_count = 0;
        std::vector<std::pair<size_t, uint64_t>> delta_buckets;
        for (const auto& [bound, n] : bucket_counts) {
          auto prev = shadow.bucket_counts.find(bound);
          uint64_t before = prev == shadow.bucket_counts.end()
                                ? 0
                                : prev->second;
          if (n > before) {
            delta_buckets.emplace_back(Histogram::BucketIndex(bound),
                                       n - before);
            delta_count += n - before;
          }
        }
        w.count = delta_count;
        w.sum = sum >= shadow.sum ? sum - shadow.sum : 0;
        w.rate = static_cast<double>(delta_count) / window_secs;
        if (delta_count > 0) {
          w.min = Histogram::BucketMidpoint(delta_buckets.front().first);
          w.max = Histogram::BucketMidpoint(delta_buckets.back().first);
          SetWindowPercentiles(delta_buckets, delta_count, &w);
        }
      }
      shadow.generation = gen_after;
      shadow.count = count;
      shadow.sum = sum;
      shadow.bucket_counts = std::move(bucket_counts);
      emit(FindOrCreateSeriesLocked(name, SeriesKind::kHistogram, 0), name,
           std::move(w));
    }

    // Class series: fold and reset the open accumulators. Classes that
    // saw no samples still close an (empty) window so the timeline
    // shows the gap.
    for (auto& [key, acc] : class_acc_) {
      const auto& [fp, metric] = key;
      std::string name = "class." + HexFingerprint(fp) + "." + metric;
      WindowStats w = base;
      w.count = acc.count;
      w.sum = acc.sum;
      w.min = acc.min;
      w.max = acc.max;
      w.rate = static_cast<double>(acc.count) / window_secs;
      w.exemplar = acc.worst;
      if (acc.count > 0) {
        std::vector<std::pair<size_t, uint64_t>> buckets;
        for (size_t i = 0; i < acc.buckets.size(); ++i) {
          if (acc.buckets[i] != 0) buckets.emplace_back(i, acc.buckets[i]);
        }
        SetWindowPercentiles(buckets, acc.count, &w);
        // Clamp midpoint estimates into the observed range.
        w.p50 = std::clamp(w.p50, w.min, w.max);
        w.p99 = std::clamp(w.p99, w.min, w.max);
      }
      acc.count = 0;
      acc.sum = 0;
      acc.min = 0;
      acc.max = 0;
      if (!acc.buckets.empty()) {
        std::fill(acc.buckets.begin(), acc.buckets.end(), 0u);
      }
      acc.worst = Exemplar{};
      emit(FindOrCreateSeriesLocked(name, SeriesKind::kClass, fp), name,
           std::move(w));
    }

    static Gauge& series_gauge =
        MetricsRegistry::Global().GetGauge("timeseries.series");
    series_gauge.Set(series_.size());
  }

  Sentinel* sentinel = sentinel_.load(std::memory_order_acquire);
  if (sentinel != nullptr && !observations.empty()) {
    sentinel->ObserveTick(observations);
  }
}

Status TimeSeriesPlane::StartTicker(uint64_t interval_ms) {
  if (interval_ms == 0) {
    return Status::InvalidArgument("ticker interval must be > 0 ms");
  }
  if (ticker_running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::AlreadyExists("ticker already running");
  }
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = false;
  }
  set_enabled(true);
  ticker_thread_ = std::thread([this, interval_ms] {
    TickerLoop(interval_ms);
  });
  return Status::OK();
}

void TimeSeriesPlane::TickerLoop(uint64_t interval_ms) {
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!ticker_stop_) {
    if (ticker_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                            [this] { return ticker_stop_; })) {
      break;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void TimeSeriesPlane::StopTicker() {
  if (!ticker_running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_thread_.joinable()) ticker_thread_.join();
}

std::vector<SeriesSnapshot> TimeSeriesPlane::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    SeriesSnapshot snap;
    snap.name = name;
    snap.kind = s.kind;
    snap.class_fingerprint = s.class_fingerprint;
    snap.windows = s.Ordered();
    out.push_back(std::move(snap));
  }
  return out;
}

void TimeSeriesPlane::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  prev_counters_.clear();
  hist_shadows_.clear();
  class_acc_.clear();
  window_start_ns_ = 0;
}

std::string TimeSeriesPlane::ToText(const std::string& filter) const {
  std::vector<SeriesSnapshot> series = Snapshot();
  std::string out;
  if (filter.empty()) {
    if (series.empty()) {
      return "(no series yet — \\tick or \\serve closes windows)\n";
    }
    out += "timeline: " + std::to_string(series.size()) + " series, " +
           std::to_string(ticks()) + " tick(s), ring of " +
           std::to_string(windows_per_series_) + " windows\n";
    for (const SeriesSnapshot& s : series) {
      const WindowStats* last =
          s.windows.empty() ? nullptr : &s.windows.back();
      out += "  " + s.name + " (" + SeriesKindName(s.kind) + ", " +
             std::to_string(s.windows.size()) + " windows";
      if (last != nullptr) {
        out += ", last=" + FormatDouble(WindowPlotValue(s.kind, *last));
      }
      out += ")\n";
    }
    out += "(\\timeline <metric> for the sparkline + window table)\n";
    return out;
  }
  size_t matched = 0;
  for (const SeriesSnapshot& s : series) {
    if (s.name.find(filter) == std::string::npos) continue;
    ++matched;
    out += s.name + " (" + SeriesKindName(s.kind) + ", " +
           std::to_string(s.windows.size()) + " windows)\n";
    double max_value = 0.0;
    for (const WindowStats& w : s.windows) {
      if (w.valid) max_value = std::max(max_value, WindowPlotValue(s.kind, w));
    }
    std::string spark;
    for (const WindowStats& w : s.windows) {
      if (!w.valid) {
        spark += 'x';
        continue;
      }
      double v = WindowPlotValue(s.kind, w);
      size_t level =
          max_value <= 0.0
              ? 0
              : static_cast<size_t>(std::lround(
                    (v / max_value) * static_cast<double>(kSparkLevels)));
      if (level > kSparkLevels) level = kSparkLevels;
      spark += kSparkRamp[level];
    }
    out += "  [" + spark + "]  (x = window invalidated by a reset)\n";
    out += "  window        count        p50        p99        max"
           "       rate      ratio  exemplar\n";
    size_t start = s.windows.size() > 12 ? s.windows.size() - 12 : 0;
    for (size_t i = start; i < s.windows.size(); ++i) {
      const WindowStats& w = s.windows[i];
      char line[200];
      std::string exemplar;
      if (w.exemplar.record_id != 0) {
        exemplar = "#" + std::to_string(w.exemplar.record_id) + "/" +
                   HexFingerprint(w.exemplar.fingerprint).substr(8);
      }
      std::snprintf(line, sizeof(line),
                    "  %6llu %12llu %10llu %10llu %10llu %10.1f %10.3f  %s%s\n",
                    static_cast<unsigned long long>(w.window),
                    static_cast<unsigned long long>(w.count),
                    static_cast<unsigned long long>(w.p50),
                    static_cast<unsigned long long>(w.p99),
                    static_cast<unsigned long long>(w.max), w.rate, w.ratio,
                    exemplar.c_str(), w.valid ? "" : " (invalid)");
      out += line;
    }
  }
  if (matched == 0) out += "(no series matching \"" + filter + "\")\n";
  return out;
}

std::string TimeSeriesPlane::ToJson() const {
  std::vector<SeriesSnapshot> series = Snapshot();
  std::string out = "{\"timeseries\": {\n";
  out += "  \"ticks\": " + std::to_string(ticks()) + ",\n";
  out += "  \"windows_per_series\": " +
         std::to_string(windows_per_series_) + ",\n";
  out += "  \"series\": [";
  bool first = true;
  for (const SeriesSnapshot& s : series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + JsonEscape(s.name) + "\", ";
    out += "\"kind\": \"" + std::string(SeriesKindName(s.kind)) + "\", ";
    if (s.kind == SeriesKind::kClass) {
      out += "\"class_fingerprint\": \"" +
             HexFingerprint(s.class_fingerprint) + "\", ";
    }
    out += "\"windows\": [";
    bool wfirst = true;
    for (const WindowStats& w : s.windows) {
      out += wfirst ? "" : ", ";
      wfirst = false;
      out += "{\"window\": " + std::to_string(w.window);
      out += ", \"start_ns\": " + std::to_string(w.start_ns);
      out += ", \"end_ns\": " + std::to_string(w.end_ns);
      out += ", \"valid\": " + std::string(w.valid ? "true" : "false");
      out += ", \"count\": " + std::to_string(w.count);
      out += ", \"value\": " + std::to_string(w.value);
      out += ", \"rate\": " + FormatDouble(w.rate);
      out += ", \"ratio\": " + FormatDouble(w.ratio);
      out += ", \"sum\": " + std::to_string(w.sum);
      out += ", \"min\": " + std::to_string(w.min);
      out += ", \"max\": " + std::to_string(w.max);
      out += ", \"p50\": " + std::to_string(w.p50);
      out += ", \"p99\": " + std::to_string(w.p99);
      if (w.exemplar.record_id != 0) {
        out += ", \"exemplar\": {\"record_id\": " +
               std::to_string(w.exemplar.record_id) +
               ", \"fingerprint\": \"" +
               HexFingerprint(w.exemplar.fingerprint) +
               "\", \"value\": " + std::to_string(w.exemplar.value) + "}";
      }
      out += "}";
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}}\n";
  return out;
}

}  // namespace obs
}  // namespace uniqopt
