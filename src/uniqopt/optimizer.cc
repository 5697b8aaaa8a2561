#include "uniqopt/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "cache/fingerprint.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "parser/parser.h"

namespace uniqopt {

namespace {

/// Interned identity of one optimizer phase: the
/// `optimizer.phase.<name>.ns` histogram handle, resolved exactly once
/// per phase (function-local static at each Phase site) so the per-call
/// cost is the histogram's atomics — no string concatenation and no
/// registry mutex on the prepare hot path.
struct PhaseDef {
  const char* name;
  obs::Histogram* histogram;
};

PhaseDef MakePhaseDef(const char* name) {
  return PhaseDef{name, &obs::MetricsRegistry::Global().GetHistogram(
                            std::string("optimizer.phase.") + name + ".ns")};
}

/// One optimizer phase: a latency histogram sample (atomics only). The
/// elapsed time is also appended to `phase_sink` — that is how a
/// prepare's per-phase latencies reach its flight-recorder part — or
/// stored in `ns_sink`, whichever is non-null.
class Phase {
 public:
  using Sink = std::vector<std::pair<std::string, uint64_t>>;

  Phase(const PhaseDef& def, Sink* phase_sink)
      : Phase(def, phase_sink, nullptr) {}
  Phase(const PhaseDef& def, uint64_t* ns_sink)
      : Phase(def, nullptr, ns_sink) {}

  ~Phase() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    def_.histogram->Record(ns);
    if (phase_sink_ != nullptr) phase_sink_->emplace_back(def_.name, ns);
    if (ns_sink_ != nullptr) *ns_sink_ = ns;
  }

 private:
  Phase(const PhaseDef& def, Sink* phase_sink, uint64_t* ns_sink)
      : def_(def),
        phase_sink_(phase_sink),
        ns_sink_(ns_sink),
        start_(std::chrono::steady_clock::now()) {}

  const PhaseDef& def_;
  Sink* phase_sink_;
  uint64_t* ns_sink_;
  std::chrono::steady_clock::time_point start_;
};

/// The registry counters that accumulate ExecStats across executions,
/// interned once like PhaseDef so the record path pays only atomics.
struct ExecCounters {
  obs::Counter& rows_scanned = Intern("exec.rows_scanned");
  obs::Counter& rows_sorted = Intern("exec.rows_sorted");
  obs::Counter& sort_comparisons = Intern("exec.sort_comparisons");
  obs::Counter& hash_probes = Intern("exec.hash_probes");
  obs::Counter& hash_build_rows = Intern("exec.hash_build_rows");
  obs::Counter& inner_loop_rows = Intern("exec.inner_loop_rows");
  obs::Counter& index_probes = Intern("exec.index_probes");
  obs::Counter& rows_output = Intern("exec.rows_output");

  static obs::Counter& Intern(const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name);
  }

  void Add(const ExecStats& stats) const {
    rows_scanned.Increment(stats.rows_scanned);
    rows_sorted.Increment(stats.rows_sorted);
    sort_comparisons.Increment(stats.sort_comparisons);
    hash_probes.Increment(stats.hash_probes);
    hash_build_rows.Increment(stats.hash_build_rows);
    inner_loop_rows.Increment(stats.inner_loop_rows);
    index_probes.Increment(stats.index_probes);
    rows_output.Increment(stats.rows_output);
  }
};

/// One-line verdict of the uniqueness analysis for the recorder.
std::string AnalysisSummary(const UniquenessVerdict& v) {
  if (!v.has_distinct) return "no DISTINCT at plan top";
  std::string detector = v.detector == DetectorKind::kAlgorithm1
                             ? "algorithm1"
                             : "fd-propagation";
  if (v.distinct_unnecessary) {
    return "DISTINCT proven redundant (" + detector + ")";
  }
  return "DISTINCT retained (unproven by " + detector + ")";
}

/// The flight-recorder part shared by every execution of `q`, which
/// keeps the prepare's `phases`.
std::shared_ptr<const obs::PreparedRecord> MakePreparedRecord(
    const PreparedQuery& q, Phase::Sink phases) {
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "optimizer";
  part->query = q.sql;
  part->plan_hash = q.plan_hash;
  part->phase_ns = std::move(phases);
  for (const AppliedRewrite& r : q.rewrites) {
    part->rewrites.emplace_back(RewriteRuleIdToString(r.rule), r.description);
  }
  part->proof_summary = AnalysisSummary(q.analysis);
  for (const obs::NearMiss& miss : q.near_misses) {
    part->near_misses.push_back(miss.ToString());
  }
  if (q.verified) {
    part->verify_summary = q.verification.Summary();
    part->verify_violations = q.verification.violations.size();
    part->equiv_proven = q.verification.equiv_proven;
    part->equiv_unproven = q.verification.equiv_unproven;
    part->equiv_refuted = q.verification.equiv_refuted;
  }
  return part;
}

/// Emits the record for a failed prepare/execute so \history shows
/// erroring queries alongside successful ones.
void RecordFailure(const std::string& sql, const Status& status,
                   Phase::Sink phases) {
  obs::QueryRecord rec;
  rec.ok = false;
  rec.error = status.ToString();
  for (const auto& [name, ns] : phases) rec.total_ns += ns;
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "optimizer";
  part->query = sql;
  part->phase_ns = std::move(phases);
  rec.prepared = std::move(part);
  obs::QueryRecorder::Global().Record(std::move(rec));
}

/// A fresh operator tree for `query` under `options`: built from the
/// stored decisions while they hold, else decided afresh with the same
/// code (non-default options, a catalog change since the prepare, a plan
/// replaced by hand, or no stored decisions).
Result<OperatorPtr> BuildTree(const PreparedQuery& query, const Database& db,
                              const PhysicalOptions& options,
                              ExecProfile* profile) {
  const uint64_t version = db.catalog().version();
  if (query.physical != nullptr &&
      query.physical->Holds(query.optimized_plan, options, version)) {
    return query.physical->Build(profile);
  }
  UNIQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const PhysicalPlan> decided,
      PhysicalPlan::Decide(query.optimized_plan, db, options, version));
  return decided->Build(profile);
}

/// The prepare phases `query`'s record part keeps (none on a query
/// assembled by hand).
Phase::Sink PreparePhases(const PreparedQuery& query) {
  return query.record != nullptr ? query.record->phase_ns : Phase::Sink{};
}

size_t CountPlanNodes(const PlanNode& node) {
  size_t n = 1;
  for (size_t i = 0; i < node.num_children(); ++i) {
    n += CountPlanNodes(*node.child(i));
  }
  return n;
}

/// The size of the record part `q` keeps.
size_t EstimateRecordBytes(const obs::PreparedRecord& part) {
  size_t bytes = sizeof(obs::PreparedRecord) + part.source.size() +
                 part.query.size() + part.proof_summary.size() +
                 part.verify_summary.size();
  for (const auto& [name, ns] : part.phase_ns) {
    (void)ns;
    bytes += 32 + name.size();
  }
  for (const auto& [rule, description] : part.rewrites) {
    bytes += 64 + rule.size() + description.size();
  }
  for (const std::string& line : part.near_misses) bytes += 32 + line.size();
  return bytes;
}

/// Approximate retained size of a prepared query for the cache's byte
/// budget: the query, its record part and its stored decisions. Plans
/// are charged per node at the optimized plan's printed bytes per node
/// (`optimized_text_bytes`: PrepareUncached prints that plan once, for
/// plan_hash); proof traces get a flat per-rewrite allowance.
size_t EstimatePreparedQueryBytes(const PreparedQuery& q,
                                  size_t optimized_text_bytes) {
  const size_t bytes_per_node =
      optimized_text_bytes /
      std::max<size_t>(1, CountPlanNodes(*q.optimized_plan));
  auto plan_bytes = [&](const PlanPtr& plan) -> size_t {
    return plan == nullptr ? 0 : CountPlanNodes(*plan) * bytes_per_node;
  };
  size_t bytes = sizeof(PreparedQuery) + q.sql.size();
  bytes += (plan_bytes(q.original_plan) + optimized_text_bytes) * 2;
  for (const AppliedRewrite& r : q.rewrites) {
    bytes += 256 + r.description.size();
    for (const std::string& fact : r.evidence.facts) bytes += fact.size();
    bytes += plan_bytes(r.evidence.before) + plan_bytes(r.evidence.after);
  }
  for (const obs::NearMiss& miss : q.near_misses) {
    bytes += 64 + miss.goal.size() + miss.table.size() + miss.fact.size();
  }
  bytes += q.chosen_label.size();
  if (q.record != nullptr) bytes += EstimateRecordBytes(*q.record);
  if (q.physical != nullptr) bytes += q.physical->ApproxBytes();
  return bytes;
}

}  // namespace

std::string PreparedQuery::Explain() const {
  std::string out = "SQL: " + sql;
  if (cache_hit) out += "  [plan cache hit]";
  out += "\n";
  out += "-- logical plan --\n";
  out += original_plan->ToString();
  if (rewrites.empty()) {
    out += "-- no rewrites applied --\n";
  } else {
    out += "-- rewrites --\n";
    for (const AppliedRewrite& r : rewrites) {
      out += "  ";
      out += RewriteRuleIdToString(r.rule);
      out += ": ";
      out += r.description;
      out += "\n";
    }
    out += "-- optimized plan --\n";
    out += optimized_plan->ToString();
  }
  if (cost_based) {
    out += "-- cost-based choice --\n";
    out += "  " + chosen_label +
           " (est. rows=" + std::to_string(chosen_estimate.rows) +
           ", cost=" + std::to_string(chosen_estimate.cost) + ")\n";
  }
  out += "-- uniqueness analysis --\n";
  out += analysis.ExplainProof();
  if (verified) {
    out += "-- verification --\n";
    out += verification.ToString();
  }
  return out;
}

Result<PreparedQuery> Optimizer::PrepareUncached(
    const std::string& sql, uint64_t catalog_version,
    size_t* retained_bytes) const {
  static obs::Counter& prepared_counter =
      obs::MetricsRegistry::Global().GetCounter("optimizer.queries_prepared");
  prepared_counter.Increment();

  PreparedQuery out;
  Phase::Sink phases;
  QueryPtr parsed;
  {
    static const PhaseDef kParse = MakePhaseDef("parse");
    Phase phase(kParse, &phases);
    auto r = ParseQuery(sql);
    if (!r.ok()) {
      RecordFailure(sql, r.status(), std::move(phases));
      return r.status();
    }
    parsed = std::move(*r);
  }
  BoundQuery bound;
  {
    static const PhaseDef kBind = MakePhaseDef("bind");
    Phase phase(kBind, &phases);
    Binder binder(&db_->catalog());
    auto r = binder.Bind(*parsed);
    if (!r.ok()) {
      RecordFailure(sql, r.status(), std::move(phases));
      return r.status();
    }
    bound = std::move(*r);
  }
  // Near-miss collection is an advisor feature: only pay for the
  // minimal-missing-fact computation at proof-failure sites when the
  // suggestions actually have somewhere to go.
  RewriteOptions effective_options = rewrite_options_;
  if (advise_ && obs::AdvisorStore::Global().enabled()) {
    effective_options.analysis.collect_near_misses = true;
  }
  {
    // Standalone DISTINCT analysis of the bound plan: the verdict (and
    // its proof) ride along on the PreparedQuery for EXPLAIN, whatever
    // the rewriter later decides to do with it.
    static const PhaseDef kAnalyze = MakePhaseDef("analyze");
    Phase phase(kAnalyze, &phases);
    out.analysis = AnalyzeDistinct(bound.plan, effective_options.analysis);
  }
  RewriteResult rewritten;
  {
    static const PhaseDef kRewrite = MakePhaseDef("rewrite");
    Phase phase(kRewrite, &phases);
    auto r = RewritePlan(bound.plan, effective_options, &out.analysis);
    if (!r.ok()) {
      RecordFailure(sql, r.status(), std::move(phases));
      return r.status();
    }
    rewritten = std::move(*r);
  }
  out.sql = sql;
  out.original_plan = std::move(bound.plan);
  out.optimized_plan = std::move(rewritten.plan);
  out.rewrites = std::move(rewritten.applied);
  out.host_vars = std::move(bound.host_vars);
  // Merge the standalone analysis' near-misses with the rewriter's
  // harvested ones, dedup by (goal, table, fact), and feed the advisor.
  {
    auto add = [&](std::vector<obs::NearMiss>* src) {
      for (obs::NearMiss& miss : *src) {
        bool dup = false;
        for (const obs::NearMiss& seen : out.near_misses) {
          dup = dup || (seen.goal == miss.goal &&
                        seen.table == miss.table && seen.fact == miss.fact);
        }
        if (!dup) out.near_misses.push_back(std::move(miss));
      }
      src->clear();
    };
    add(&out.analysis.near_misses);
    add(&rewritten.near_misses);
  }
  // The canonical *shape* fingerprint — catalog-version independent
  // with literals parameterized, so canonically-equal SQL counts as one
  // query class. The advisor dedups suggestions on it and the
  // time-series plane buckets per-class latencies under it. The SQL
  // parsed, so it lexes.
  const Result<cache::CanonicalSql> canonical = cache::CanonicalizeSql(sql);
  if (canonical.ok()) {
    cache::FingerprintOptions fopts;
    fopts.parameterize_literals = true;
    out.class_fingerprint =
        cache::FingerprintSql(*canonical, /*catalog_version=*/0, fopts);
    if (advise_ && !out.near_misses.empty() &&
        obs::AdvisorStore::Global().enabled()) {
      // The canonical text (literals intact, re-preparable) is kept as a
      // replay sample alongside each suggestion.
      for (const obs::NearMiss& miss : out.near_misses) {
        obs::AdvisorStore::Global().Record(miss, out.class_fingerprint,
                                           canonical->text);
      }
    }
  }
  if (use_cost_model_) {
    static const PhaseDef kCost = MakePhaseDef("cost");
    Phase phase(kCost, &phases);
    CostEstimator estimator(db_);
    std::vector<PlanAlternative> alternatives =
        StandardAlternatives(out.original_plan, out.optimized_plan);
    size_t best = ChooseBestAlternative(estimator, &alternatives);
    out.cost_based = true;
    out.optimized_plan = alternatives[best].plan;
    out.chosen_physical = alternatives[best].physical;
    out.chosen_label = alternatives[best].label;
    out.chosen_estimate = alternatives[best].estimate;
  }
  if (verify_plans_) {
    // After cost selection: verify the plan that will actually execute.
    static const PhaseDef kVerify = MakePhaseDef("verify");
    Phase phase(kVerify, &phases);
    out.verification = Verify(out);
    out.verified = true;
  }
  {
    // Lower once: every Execute under these options and this catalog
    // version only builds operators from the decisions. A failure here
    // stores none, and Execute then fails as it would have.
    static const PhaseDef kLower = MakePhaseDef("lower");
    Phase phase(kLower, &phases);
    auto r = PhysicalPlan::Decide(
        out.optimized_plan, *db_,
        out.cost_based ? out.chosen_physical : PhysicalOptions{},
        catalog_version);
    if (r.ok()) out.physical = std::move(*r);
  }
  const std::string optimized_text = out.optimized_plan->ToString();
  out.plan_hash = obs::FingerprintPlanText(optimized_text);
  out.record = MakePreparedRecord(out, std::move(phases));
  if (retained_bytes != nullptr) {
    *retained_bytes =
        EstimatePreparedQueryBytes(out, optimized_text.size());
  }
  return out;
}

uint64_t Optimizer::CacheKey(std::string_view sql,
                             uint64_t catalog_version) const {
  // The verify and equiv flags shape what a PreparedQuery contains
  // (verification report and certificates present or not).
  const uint64_t mode = (verify_plans_ ? 1 : 0) | (check_equiv_ ? 2 : 0);
  return cache::Fnv1aMix(cache::Fnv1aMix(cache::Fnv1a(sql), catalog_version),
                         mode);
}

Result<std::shared_ptr<const PreparedQuery>> Optimizer::PrepareShared(
    const std::string& sql, bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  // Per-class prepare latency for the time-series plane. With the plane
  // off (the default) `feed` is one relaxed load and no clock is read.
  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  const bool feed = plane.enabled();
  const auto feed_start =
      feed ? std::chrono::steady_clock::now()
           : std::chrono::steady_clock::time_point{};
  auto feed_sample = [&](const PreparedQuery& q) {
    if (!feed) return;
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - feed_start)
            .count());
    plane.RecordClassSample(q.class_fingerprint, "prepare.ns", ns,
                            /*record_id=*/0, q.plan_hash);
  };
  // Read the catalog version before preparing: if DDL lands mid-flight
  // the entry is stored under the older version and can never be
  // served after the bump.
  const uint64_t version = db_->catalog().version();
  const bool cacheable = CacheUsable();
  uint64_t key = 0;
  if (cacheable) {
    key = CacheKey(sql, version);
    cache::PlanCache::EntryPtr entry = cache_->Get(key, version);
    // A 64-bit key match alone does not prove the entry was prepared
    // from these bytes: on a collision prepare cold and replace it.
    if (entry != nullptr && entry->sql == sql) {
      if (cache_hit != nullptr) *cache_hit = true;
      static obs::Counter& prepared_counter =
          obs::MetricsRegistry::Global().GetCounter(
              "optimizer.queries_prepared");
      prepared_counter.Increment();
      feed_sample(*entry);
      return entry;
    }
  }
  size_t bytes = 0;
  UNIQOPT_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           PrepareUncached(sql, version, &bytes));
  auto entry =
      std::make_shared<const PreparedQuery>(std::move(prepared));
  if (cacheable) cache_->Put(key, version, entry, bytes);
  feed_sample(*entry);
  return entry;
}

Result<PreparedQuery> Optimizer::Prepare(const std::string& sql) const {
  if (!CacheUsable()) {
    return PrepareUncached(sql, db_->catalog().version());
  }
  bool hit = false;
  UNIQOPT_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> entry,
                           PrepareShared(sql, &hit));
  PreparedQuery out = *entry;
  out.cache_hit = hit;
  return out;
}

Result<std::vector<std::shared_ptr<const PreparedQuery>>>
Optimizer::PrepareBatch(std::span<const std::string> sqls,
                        unsigned threads) const {
  std::vector<std::shared_ptr<const PreparedQuery>> out(sqls.size());
  if (sqls.empty()) return out;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  if (threads > sqls.size()) {
    threads = static_cast<unsigned>(sqls.size());
  }
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  size_t first_error_index = SIZE_MAX;
  Status first_error;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < sqls.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      auto r = PrepareShared(sqls[i]);
      if (r.ok()) {
        out[i] = std::move(*r);
      } else {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = r.status();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
  if (first_error_index != SIZE_MAX) return first_error;
  return out;
}

verify::VerifyReport Optimizer::Verify(const PreparedQuery& query) const {
  verify::VerifyInput input;
  input.original = query.original_plan;
  input.optimized = query.optimized_plan;
  input.rewrites = &query.rewrites;
  input.check_equiv = check_equiv_;
  return verify::VerifyPlan(input);
}

Result<std::vector<Row>> Optimizer::Execute(
    const PreparedQuery& query,
    const std::vector<std::pair<std::string, Value>>& params,
    const PhysicalOptions& physical, ExecStats* stats,
    ExecProfile* profile) const {
  ExecContext ctx;
  ctx.params.resize(query.host_vars.size());
  std::vector<bool> bound(query.host_vars.size(), false);
  for (const auto& [name, value] : params) {
    bool found = false;
    for (size_t i = 0; i < query.host_vars.size(); ++i) {
      if (EqualsIgnoreCase(query.host_vars[i].name, name)) {
        ctx.params[i] = value;
        bound[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      Status st = Status::InvalidArgument("unknown host variable: " + name);
      RecordFailure(query.sql, st, PreparePhases(query));
      return st;
    }
  }
  for (size_t i = 0; i < bound.size(); ++i) {
    if (!bound[i]) {
      Status st = Status::InvalidArgument("host variable not bound: :" +
                                          query.host_vars[i].name);
      RecordFailure(query.sql, st, PreparePhases(query));
      return st;
    }
  }
  const PhysicalOptions& effective =
      query.cost_based ? query.chosen_physical : physical;
  ctx.batch_size = effective.batch_size;
  std::vector<Row> rows;
  Status exec_status;
  uint64_t execute_ns = 0;
  {
    // The Phase destructor stores the execute timing, so recording must
    // wait until the block closes.
    static const PhaseDef kExecute = MakePhaseDef("execute");
    Phase phase(kExecute, &execute_ns);
    static obs::Counter& executed_counter =
        obs::MetricsRegistry::Global().GetCounter(
            "optimizer.queries_executed");
    executed_counter.Increment();
    Result<OperatorPtr> root = BuildTree(query, *db_, effective, profile);
    Result<std::vector<Row>> r =
        root.ok() ? ExecuteToVector(root->get(), &ctx)
                  : Result<std::vector<Row>>(root.status());
    if (r.ok()) {
      rows = std::move(*r);
    } else {
      exec_status = r.status();
    }
  }
  if (!exec_status.ok()) {
    Phase::Sink phases = PreparePhases(query);
    phases.emplace_back("execute", execute_ns);
    RecordFailure(query.sql, exec_status, std::move(phases));
    return exec_status;
  }
  if (stats != nullptr) *stats = ctx.stats;
  obs::QueryRecord rec;
  // Every execution of a prepared entry shares its record part; only a
  // PreparedQuery assembled by hand gets one built per call.
  rec.prepared =
      query.record != nullptr ? query.record : MakePreparedRecord(query, {});
  rec.cache_hit = query.cache_hit;
  rec.execute_ns = execute_ns;
  rec.rows_out = rows.size();
  rec.rows_scanned = ctx.stats.rows_scanned;
  if (profile != nullptr) rec.profile_text = profile->ToText();
  rec.total_ns = execute_ns;
  for (const auto& [name, ns] : rec.prepared->phase_ns) rec.total_ns += ns;
  uint64_t record_id = obs::QueryRecorder::Global().Record(std::move(rec));
  // Per-class execute latency, exemplar-linked to the record just
  // written: an alert on this window resolves to that QueryRecord. The
  // prepare cost is PrepareShared's `prepare.ns` sample, not this one.
  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  if (plane.enabled()) {
    plane.RecordClassSample(query.class_fingerprint, "execute.ns",
                            execute_ns, record_id, query.plan_hash);
  }
  // Mirror the per-execution work counters into the registry so they
  // accumulate across queries (\metrics, bench --metrics-json).
  static const ExecCounters kExecCounters;
  kExecCounters.Add(ctx.stats);
  return rows;
}

Result<std::string> Optimizer::ExplainAnalyze(
    const PreparedQuery& query,
    const std::vector<std::pair<std::string, Value>>& params,
    const PhysicalOptions& physical) const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::CounterSnapshot before = reg.Counters();
  ExecProfile profile;
  ExecStats stats;
  auto start = std::chrono::steady_clock::now();
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           Execute(query, params, physical, &stats,
                                   &profile));
  auto elapsed = std::chrono::steady_clock::now() - start;
  uint64_t total_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
  obs::CounterSnapshot after = reg.Counters();

  std::string out = query.Explain();
  out += "-- execution profile --\n";
  out += profile.ToText();
  out += "-- executor stats --\n  " + stats.ToString() + "\n";
  out += "-- metrics delta --\n";
  std::string delta = obs::CounterDeltaToText(before, after);
  out += delta.empty() ? std::string("  (none)\n") : delta;
  out += "-- result --\n  " + std::to_string(rows.size()) + " row(s) in " +
         std::to_string(total_us) + "us\n";
  return out;
}

Result<UniquenessVerdict> Optimizer::AnalyzeSql(const std::string& sql) const {
  Binder binder(&db_->catalog());
  UNIQOPT_ASSIGN_OR_RETURN(BoundQuery bound, binder.BindSql(sql));
  return AnalyzeDistinct(bound.plan, rewrite_options_.analysis);
}

}  // namespace uniqopt
