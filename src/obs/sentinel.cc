#include "obs/sentinel.h"

#include <algorithm>
#include <cstring>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "obs/export.h"

namespace uniqopt {
namespace obs {

namespace {

std::string FormatStatValue(double v) {
  char buf[48];
  if (std::fabs(v) >= 100.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

std::string Alert::ToString() const {
  std::string out = "ALERT #" + std::to_string(id) + " window=" +
                    std::to_string(window) + " " + series + " " + stat +
                    "=" + FormatStatValue(observed) + " expected=" +
                    FormatStatValue(expected) + "±" + FormatStatValue(band) +
                    " severity=" + severity;
  if (exemplar.record_id != 0) {
    out += " exemplar=#" + std::to_string(exemplar.record_id) + "/" +
           HexFingerprint(exemplar.fingerprint).substr(8) + " (" +
           std::to_string(exemplar.value) + ")";
  }
  return out;
}

Sentinel::Sentinel(SentinelOptions options) : options_(options) {}

Sentinel& Sentinel::Global() {
  static Sentinel* sentinel = new Sentinel();
  return *sentinel;
}

void Sentinel::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  if (!on) {
    MetricsRegistry::Global().GetGauge("sentinel.armed").Set(0);
  }
}

void Sentinel::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.clear();
  alerts_.clear();
  alert_head_ = 0;
  MetricsRegistry::Global().GetGauge("sentinel.armed").Set(0);
}

void Sentinel::PushAlertLocked(Alert alert) {
  total_alerts_.fetch_add(1, std::memory_order_relaxed);
  static Counter& alert_counter =
      MetricsRegistry::Global().GetCounter("sentinel.alerts");
  alert_counter.Increment();
  UNIQOPT_LOG(kWarning) << "sentinel " << alert.ToString();
  if (alerts_.size() < options_.max_alerts) {
    alerts_.push_back(std::move(alert));
  } else {
    alerts_[alert_head_] = std::move(alert);
    alert_head_ = (alert_head_ + 1) % options_.max_alerts;
  }
}

bool Sentinel::ObserveStat(const SeriesObservation& obs, const char* stat,
                           double observed, bool upward) {
  // Callers hold mu_.
  Track& track = tracks_[obs.series + "|" + stat];
  if (track.windows == 0) {
    track.ewma = observed;
    track.mad = 0.0;
    track.windows = 1;
    return false;
  }
  const double deviation = observed - track.ewma;
  const double abs_deviation = std::fabs(deviation);
  bool fired = false;
  if (track.windows >= options_.warmup_windows) {
    const double abs_floor = std::strcmp(stat, "ratio") == 0
                                 ? options_.min_band_abs_ratio
                                 : options_.min_band_abs;
    double band = options_.band_k *
                  std::max({track.mad,
                            options_.min_band_fraction *
                                std::fabs(track.ewma),
                            abs_floor});
    fired = upward ? deviation > band : deviation < -band;
    if (fired) {
      Alert alert;
      alert.id = next_alert_id_.fetch_add(1, std::memory_order_relaxed);
      alert.window = obs.stats.window;
      alert.series = obs.series;
      alert.class_fingerprint = obs.class_fingerprint;
      alert.stat = stat;
      alert.observed = observed;
      alert.expected = track.ewma;
      alert.band = band;
      alert.severity = abs_deviation > 2.0 * band ? "critical" : "warn";
      alert.exemplar = obs.stats.exemplar;
      alert.end_ns = obs.stats.end_ns;
      PushAlertLocked(std::move(alert));
      // Snap the reference to the new level: a sustained step fires
      // exactly once, and the series is immediately re-armed there.
      track.ewma = observed;
      ++track.windows;
      return true;
    }
  }
  track.ewma += options_.alpha * deviation;
  track.mad = (1.0 - options_.mad_alpha) * track.mad +
              options_.mad_alpha * abs_deviation;
  ++track.windows;
  return fired;
}

void Sentinel::ObserveTick(
    const std::vector<SeriesObservation>& observations) {
  if (!enabled()) return;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  static Counter& tick_counter =
      MetricsRegistry::Global().GetCounter("sentinel.ticks");
  tick_counter.Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SeriesObservation& obs : observations) {
      switch (obs.kind) {
        case SeriesKind::kHistogram:
        case SeriesKind::kClass:
          // Latency regressions are upward moves of the window
          // percentiles. p50 fires first on a uniform slowdown; p99
          // catches tail-only blow-ups.
          ObserveStat(obs, "p50", static_cast<double>(obs.stats.p50),
                      /*upward=*/true);
          ObserveStat(obs, "p99", static_cast<double>(obs.stats.p99),
                      /*upward=*/true);
          break;
        case SeriesKind::kRatio:
          // A rewrite that silently stops firing is a collapse of the
          // firing ratio — a downward alert.
          ObserveStat(obs, "ratio", obs.stats.ratio, /*upward=*/false);
          break;
        case SeriesKind::kCounter:
        case SeriesKind::kGauge:
          break;  // raw counters/gauges are too noisy to band-check
      }
    }
  }
  MetricsRegistry::Global().GetGauge("sentinel.armed").Set(armed_series());
}

size_t Sentinel::armed_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t armed = 0;
  for (const auto& [key, track] : tracks_) {
    (void)key;
    if (track.windows >= options_.warmup_windows) ++armed;
  }
  return armed;
}

std::vector<Alert> Sentinel::Alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Alert> out;
  out.reserve(alerts_.size());
  for (size_t i = 0; i < alerts_.size(); ++i) {
    out.push_back(alerts_[(alert_head_ + i) % alerts_.size()]);
  }
  return out;
}

std::string Sentinel::ToText() const {
  std::string out = "sentinel: ";
  out += enabled() ? "armed" : "off";
  out += " (" + std::to_string(armed_series()) + " armed series, " +
         std::to_string(total_alerts()) + " alert(s), " +
         std::to_string(ticks()) + " tick(s))\n";
  std::vector<Alert> alerts = Alerts();
  if (alerts.empty()) {
    out += "(no alerts)\n";
    return out;
  }
  for (const Alert& a : alerts) out += "  " + a.ToString() + "\n";
  return out;
}

std::string Sentinel::ToJson() const {
  std::vector<Alert> alerts = Alerts();
  std::string out = "{\"sentinel\": {\n";
  out += "  \"enabled\": " + std::string(enabled() ? "true" : "false") +
         ",\n";
  out += "  \"ticks\": " + std::to_string(ticks()) + ",\n";
  out += "  \"armed_series\": " + std::to_string(armed_series()) + ",\n";
  out += "  \"total_alerts\": " + std::to_string(total_alerts()) + ",\n";
  out += "  \"alerts\": [";
  bool first = true;
  for (const Alert& a : alerts) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(a.id);
    out += ", \"window\": " + std::to_string(a.window);
    out += ", \"series\": \"" + JsonEscape(a.series) + "\"";
    if (a.class_fingerprint != 0) {
      out += ", \"class_fingerprint\": \"" +
             HexFingerprint(a.class_fingerprint) + "\"";
    }
    out += ", \"stat\": \"" + JsonEscape(a.stat) + "\"";
    out += ", \"observed\": " + FormatStatValue(a.observed);
    out += ", \"expected\": " + FormatStatValue(a.expected);
    out += ", \"band\": " + FormatStatValue(a.band);
    out += ", \"severity\": \"" + JsonEscape(a.severity) + "\"";
    out += ", \"end_ns\": " + std::to_string(a.end_ns);
    if (a.exemplar.record_id != 0) {
      out += ", \"exemplar\": {\"record_id\": " +
             std::to_string(a.exemplar.record_id) + ", \"fingerprint\": \"" +
             HexFingerprint(a.exemplar.fingerprint) +
             "\", \"value\": " + std::to_string(a.exemplar.value) + "}";
    }
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}}\n";
  return out;
}

}  // namespace obs
}  // namespace uniqopt
