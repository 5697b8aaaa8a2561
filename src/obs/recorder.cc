#include "obs/recorder.h"

#include <chrono>
#include <cstdio>

#include <ctime>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace uniqopt {
namespace obs {

namespace {

/// "2026-08-09T12:34:56Z" (UTC) for a microseconds-since-epoch stamp;
/// empty when the record was never stamped.
std::string FormatWallTimeUs(uint64_t wall_time_us) {
  if (wall_time_us == 0) return "";
  std::time_t secs = static_cast<std::time_t>(wall_time_us / 1000000);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &secs);
#else
  gmtime_r(&secs, &tm_utc);
#endif
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec);
  return buf;
}

uint64_t NowWallTimeUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A record's prepared part; an empty one when it has none.
const PreparedRecord& PartOf(
    const std::shared_ptr<const PreparedRecord>& part) {
  static const PreparedRecord kEmpty;
  return part != nullptr ? *part : kEmpty;
}

}  // namespace

uint64_t FingerprintPlanText(const std::string& canonical_plan_text) {
  // Good enough to treat equal hashes as equal plans in practice.
  return Fnv1a(canonical_plan_text);
}

std::string QueryRecord::ToString() const {
  const PreparedRecord& part = PartOf(prepared);
  std::string when = FormatWallTimeUs(wall_time_us);
  std::string out = "#" + std::to_string(id) + " [" + part.source + "] " +
                    (ok ? "ok" : "ERROR") + " " +
                    std::to_string(total_ns / 1000) + "us" +
                    (cache_hit ? " (cached)" : "") +
                    (when.empty() ? "" : " @" + when) + "  " + part.query +
                    "\n";
  if (!ok) {
    out += "    error: " + error + "\n";
    return out;
  }
  out += "    plan_hash=" + HexFingerprint(part.plan_hash) +
         " rows_out=" + std::to_string(rows_out);
  if (rows_scanned > 0) {
    out += " rows_scanned=" + std::to_string(rows_scanned);
  }
  out += "\n";
  if (!part.phase_ns.empty() || execute_ns.has_value()) {
    out += "    phases:";
    for (const auto& [phase, ns] : part.phase_ns) {
      out += " " + phase + "=" + std::to_string(ns / 1000) + "us";
    }
    if (execute_ns.has_value()) {
      out += " execute=" + std::to_string(*execute_ns / 1000) + "us";
    }
    out += "\n";
  }
  if (!part.rewrites.empty()) {
    for (const auto& [rule, description] : part.rewrites) {
      out += "    rewrite " + rule + ": " + description + "\n";
    }
  } else {
    out += "    rewrites: none\n";
  }
  if (!part.proof_summary.empty()) {
    out += "    analysis: " + part.proof_summary + "\n";
  }
  if (!part.verify_summary.empty()) {
    out += "    verify: " + part.verify_summary + "\n";
  }
  if (part.equiv_proven + part.equiv_unproven + part.equiv_refuted > 0) {
    out += "    equiv: " + std::to_string(part.equiv_proven) + " proven / " +
           std::to_string(part.equiv_unproven) + " unproven / " +
           std::to_string(part.equiv_refuted) + " refuted\n";
  }
  for (const std::string& miss : part.near_misses) {
    out += "    near-miss: " + miss + "\n";
  }
  return out;
}

QueryRecorder::QueryRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

QueryRecorder& QueryRecorder::Global() {
  static QueryRecorder* recorder = new QueryRecorder();
  return *recorder;
}

uint64_t QueryRecorder::Record(QueryRecord record) {
  uint64_t threshold = slow_threshold_ns_.load(std::memory_order_relaxed);
  bool slow = threshold > 0 && record.total_ns >= threshold;
  uint64_t slow_id = 0;
  uint64_t slow_ns = record.total_ns;
  // The prepared part is immutable, so the log line can read it after
  // the record has moved into the ring.
  std::shared_ptr<const PreparedRecord> slow_part =
      slow ? record.prepared : nullptr;
  {
    // The id is assigned under the ring lock so snapshot order (oldest
    // first) always agrees with id order, even with concurrent writers.
    std::lock_guard<std::mutex> lock(mu_);
    record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    if (record.wall_time_us == 0) record.wall_time_us = NowWallTimeUs();
    if (record.steady_ns == 0) record.steady_ns = SteadyNowNs();
    slow_id = record.id;
    total_.fetch_add(1, std::memory_order_relaxed);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[head_] = std::move(record);
      head_ = (head_ + 1) % capacity_;
    }
  }
  if (slow) {
    const PreparedRecord& part = PartOf(slow_part);
    UNIQOPT_LOG(kWarning) << "slow query #" << slow_id << " ["
                          << part.source << "] " << slow_ns / 1000000
                          << "ms >= " << threshold / 1000000
                          << "ms: " << part.query;
    MetricsRegistry::Global().GetCounter("recorder.slow_queries")
        .Increment();
  }
  return slow_id;
}

std::vector<QueryRecord> QueryRecorder::SnapshotLocked() const {
  std::vector<QueryRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<QueryRecord> QueryRecorder::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

std::vector<QueryRecord> QueryRecorder::SlowQueries() const {
  uint64_t threshold = slow_threshold_ns_.load(std::memory_order_relaxed);
  std::vector<QueryRecord> out;
  if (threshold == 0) return out;
  for (QueryRecord& r : History()) {
    if (r.total_ns >= threshold) out.push_back(std::move(r));
  }
  return out;
}

void QueryRecorder::SetCapacity(size_t capacity) {
  if (capacity == 0) capacity = 1;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecord> ordered = SnapshotLocked();
  if (ordered.size() > capacity) {
    ordered.erase(ordered.begin(),
                  ordered.end() - static_cast<ptrdiff_t>(capacity));
  }
  capacity_ = capacity;
  ring_ = std::move(ordered);
  head_ = 0;
}

void QueryRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  // Ids keep counting (never reused); the total restarts so that
  // "retained of recorded" reads relative to the last clear.
  total_.store(0, std::memory_order_relaxed);
}

std::string QueryRecorder::ToText() const {
  std::vector<QueryRecord> records = History();
  if (records.empty()) return "(no queries recorded)\n";
  std::string out;
  for (const QueryRecord& r : records) out += r.ToString();
  out += "(" + std::to_string(records.size()) + " of " +
         std::to_string(total_recorded()) + " recorded queries retained)\n";
  return out;
}

std::string QueryRecorder::ToJson() const {
  std::vector<QueryRecord> records = History();
  std::string out = "{\"queries\": [";
  bool first = true;
  for (const QueryRecord& r : records) {
    const PreparedRecord& part = PartOf(r.prepared);
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"id\": " + std::to_string(r.id) + ", ";
    out += "\"source\": \"" + JsonEscape(part.source) + "\", ";
    out += "\"query\": \"" + JsonEscape(part.query) + "\", ";
    out += "\"ok\": " + std::string(r.ok ? "true" : "false") + ", ";
    if (!r.ok) out += "\"error\": \"" + JsonEscape(r.error) + "\", ";
    out += "\"plan_hash\": \"" + HexFingerprint(part.plan_hash) + "\", ";
    out += "\"cache_hit\": " + std::string(r.cache_hit ? "true" : "false") +
           ", ";
    out += "\"total_ns\": " + std::to_string(r.total_ns) + ", ";
    out += "\"wall_time_us\": " + std::to_string(r.wall_time_us) + ", ";
    out += "\"wall_time\": \"" +
           JsonEscape(FormatWallTimeUs(r.wall_time_us)) + "\", ";
    out += "\"steady_ns\": " + std::to_string(r.steady_ns) + ", ";
    out += "\"rows_out\": " + std::to_string(r.rows_out) + ", ";
    out += "\"rows_scanned\": " + std::to_string(r.rows_scanned) + ", ";
    out += "\"phases\": {";
    bool pfirst = true;
    for (const auto& [phase, ns] : part.phase_ns) {
      if (!pfirst) out += ", ";
      pfirst = false;
      out += "\"" + JsonEscape(phase) + "\": " + std::to_string(ns);
    }
    if (r.execute_ns.has_value()) {
      if (!pfirst) out += ", ";
      out += "\"execute\": " + std::to_string(*r.execute_ns);
    }
    out += "}, \"rewrites\": [";
    bool rfirst = true;
    for (const auto& [rule, description] : part.rewrites) {
      if (!rfirst) out += ", ";
      rfirst = false;
      out += "{\"rule\": \"" + JsonEscape(rule) + "\", \"description\": \"" +
             JsonEscape(description) + "\"}";
    }
    out += "], \"near_misses\": [";
    bool nfirst = true;
    for (const std::string& miss : part.near_misses) {
      if (!nfirst) out += ", ";
      nfirst = false;
      out += "\"" + JsonEscape(miss) + "\"";
    }
    out += "], \"analysis\": \"" + JsonEscape(part.proof_summary) + "\", ";
    out += "\"verify\": \"" + JsonEscape(part.verify_summary) + "\", ";
    out += "\"verify_violations\": " +
           std::to_string(part.verify_violations) + ", ";
    out += "\"equiv\": {\"proven\": " + std::to_string(part.equiv_proven) +
           ", \"unproven\": " + std::to_string(part.equiv_unproven) +
           ", \"refuted\": " + std::to_string(part.equiv_refuted) + "}}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace uniqopt
