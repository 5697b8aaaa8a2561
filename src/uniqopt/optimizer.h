#ifndef UNIQOPT_UNIQOPT_OPTIMIZER_H_
#define UNIQOPT_UNIQOPT_OPTIMIZER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/uniqueness.h"
#include "cache/plan_cache.h"
#include "common/result.h"
#include "exec/cost_model.h"
#include "exec/planner.h"
#include "obs/advisor.h"
#include "plan/binder.h"
#include "rewrite/rewriter.h"
#include "storage/table.h"
#include "verify/verify.h"

namespace uniqopt {

namespace obs {
struct PreparedRecord;  // obs/recorder.h
}  // namespace obs

/// Whether Prepare runs the post-optimization verifier automatically:
/// every build verifies every plan unless Optimizer::set_verify_plans
/// turns it off.
inline constexpr bool kVerifyPlansByDefault = true;

/// A fully prepared query: logical plan before/after rewriting, the
/// rewrites that fired, and the host-variable signature.
struct PreparedQuery {
  /// The exact bytes this entry was prepared from. A plan-cache hit is
  /// served only when they equal the request's, so two statements whose
  /// 64-bit keys collide never share a plan.
  std::string sql;
  PlanPtr original_plan;
  PlanPtr optimized_plan;
  std::vector<AppliedRewrite> rewrites;
  std::vector<HostVariable> host_vars;
  /// DISTINCT analysis of the bound (pre-rewrite) plan, proof included;
  /// EXPLAIN renders it via UniquenessVerdict::ExplainProof().
  UniquenessVerdict analysis;
  /// Proofs that failed by one missing fact, merged from the standalone
  /// analysis and the rewriter's gating verdicts and deduplicated by
  /// (goal, table, fact). Also published to the global AdvisorStore.
  std::vector<obs::NearMiss> near_misses;
  /// Filled by cost-based preparation: the physical strategy selected
  /// for `optimized_plan`, its label, and the estimate that won.
  bool cost_based = false;
  PhysicalOptions chosen_physical;
  std::string chosen_label;
  PlanEstimate chosen_estimate;
  /// FNV-1a fingerprint of the optimized plan's canonical printed form
  /// (equal hash ⇒ structurally equal plan).
  uint64_t plan_hash = 0;
  /// Canonical-shape fingerprint of the SQL (literals parameterized,
  /// catalog-version independent) — the query *class* key, which the
  /// advisor dedups suggestions on. The time-series plane buckets
  /// per-class prepare/execute latencies under it. 0 when the SQL did
  /// not lex.
  uint64_t class_fingerprint = 0;
  /// Post-optimization static verification (plan lint and the
  /// equivalence prover). `verified` tells whether the pass ran.
  bool verified = false;
  verify::VerifyReport verification;
  /// Whether this prepare was served from the plan cache (parse,
  /// Algorithm 1, rewriting and verification all skipped). Only set on
  /// by-value copies handed out by Prepare; the cached master stays
  /// false.
  bool cache_hit = false;
  /// The flight-recorder part every Execute of this query shares: SQL,
  /// plan hash, the per-phase preparation latencies (it alone keeps
  /// them), rewrites and the analysis, verify and near-miss lines, built
  /// once by PrepareUncached. Null on a PreparedQuery assembled by hand;
  /// Execute then builds one per call.
  std::shared_ptr<const obs::PreparedRecord> record;
  /// The physical-plan decisions for `optimized_plan`, made once by
  /// PrepareUncached under the default PhysicalOptions (`chosen_physical`
  /// when cost-based) at the catalog version PrepareShared read before
  /// preparing. Execute builds its operator tree from them while they
  /// still hold (PhysicalPlan::Holds: the same plan object, options and
  /// catalog version) and decides afresh otherwise. Null when deciding
  /// failed at prepare time.
  std::shared_ptr<const PhysicalPlan> physical;

  /// EXPLAIN-style report: both plans and the rewrite audit trail.
  std::string Explain() const;
};

/// The end-to-end facade: parse → bind → semantic rewrite → execute.
/// This is the API the examples and a downstream embedder use; the
/// individual layers remain available for finer control.
class Optimizer {
 public:
  /// When `use_cost_model` is set, Prepare additionally costs the
  /// original and rewritten plans under the standard physical
  /// alternatives (§5: "choose the most appropriate strategy on the
  /// basis of its cost model") and pins the winner.
  explicit Optimizer(Database* db, RewriteOptions rewrite_options = {},
                     bool use_cost_model = false,
                     cache::PlanCacheOptions cache_options = {})
      : db_(db),
        rewrite_options_(std::move(rewrite_options)),
        use_cost_model_(use_cost_model),
        cache_(std::make_unique<cache::PlanCache>(cache_options)) {}

  /// Parses, binds and rewrites `sql` (and cost-chooses, when enabled).
  /// Served from the plan cache when a prepare of the same SQL bytes
  /// under the same catalog version is cached (`cache_hit` set on the
  /// returned copy).
  Result<PreparedQuery> Prepare(const std::string& sql) const;

  /// The zero-copy prepare: returns the immutable cached entry itself
  /// (or the freshly prepared one, which is simultaneously inserted).
  /// This is the hot path. SQL byte-identical to the text an entry was
  /// prepared from is served without lexing: one hash over the bytes
  /// (CacheKey), one locked lookup and a byte comparison. Anything else,
  /// a respelling of a cached statement included, prepares cold once
  /// and takes its own entry. While the cache is in use each call counts
  /// exactly one hit or miss, and no plan is copied either way.
  /// `cache_hit`, when non-null, reports whether the entry came from the
  /// cache.
  ///
  /// Thread-safe: concurrent PrepareShared calls on one Optimizer are
  /// supported (concurrent DDL is not — same contract as Catalog).
  Result<std::shared_ptr<const PreparedQuery>> PrepareShared(
      const std::string& sql, bool* cache_hit = nullptr) const;

  /// Prepares a whole workload on `threads` worker threads (0 ⇒
  /// hardware concurrency), preserving input order in the result.
  /// Fails with the lowest-index error if any prepare fails.
  Result<std::vector<std::shared_ptr<const PreparedQuery>>> PrepareBatch(
      std::span<const std::string> sqls, unsigned threads = 0) const;

  /// Executes a prepared query's optimized plan: builds a fresh operator
  /// tree from the query's stored decisions (`physical`) while they hold,
  /// or decides afresh (non-default options, a catalog change since the
  /// prepare, a plan edited by hand), then runs it. `params` supplies
  /// host variables by name (case-insensitive); all declared host
  /// variables must be bound. With `profile` non-null, every operator is
  /// metered into it (rows in/out and time per operator).
  Result<std::vector<Row>> Execute(
      const PreparedQuery& query,
      const std::vector<std::pair<std::string, Value>>& params = {},
      const PhysicalOptions& physical = {}, ExecStats* stats = nullptr,
      ExecProfile* profile = nullptr) const;

  /// EXPLAIN ANALYZE: executes the prepared query with per-operator
  /// metering and reports the plans/rewrites, the operator profile, the
  /// executor work counters, and the registry counters this execution
  /// moved (e.g. ims.dli.* for gateway programs run in the same scope).
  Result<std::string> ExplainAnalyze(
      const PreparedQuery& query,
      const std::vector<std::pair<std::string, Value>>& params = {},
      const PhysicalOptions& physical = {}) const;

  /// Runs the DISTINCT analysis without rewriting (diagnostics).
  Result<UniquenessVerdict> AnalyzeSql(const std::string& sql) const;

  /// Runs the post-optimization verifier over an already-prepared query
  /// (the shell's \verify, and anyone who prepared with auto-verify
  /// off). Prepare calls this internally when verify_plans() is set.
  verify::VerifyReport Verify(const PreparedQuery& query) const;

  /// Toggles automatic verification inside Prepare (on by default in
  /// every build, Release included).
  void set_verify_plans(bool on) { verify_plans_ = on; }
  bool verify_plans() const { return verify_plans_; }

  /// Toggles publication of near-miss records to the global advisor
  /// store (on by default; the advisor-off bench path disables it).
  void set_advise(bool on) { advise_ = on; }
  bool advise() const { return advise_; }

  /// Toggles the symbolic equivalence prover inside verification (on
  /// by default). Only consulted when verification runs at all.
  void set_check_equiv(bool on) { check_equiv_ = on; }
  bool check_equiv() const { return check_equiv_; }

  /// The plan-cache key of `sql` under `catalog_version`: FNV-1a over
  /// the exact bytes, mixed with the version and the verify/equiv mode
  /// bits — everything a prepared entry depends on. PrepareShared keys
  /// every entry with this and serves a hit only when the entry's `sql`
  /// equals `sql`.
  uint64_t CacheKey(std::string_view sql, uint64_t catalog_version) const;

  /// Always the default PhysicalOptions and 0: a prepared entry depends
  /// on neither (physical options are an Execute argument), so neither
  /// is part of CacheKey. Kept for callers that still fold them into a
  /// key of their own (reqbench's traced replay).
  PhysicalOptions default_physical() const { return {}; }
  uint64_t extra_fingerprint_salt() const { return 0; }

  Database* database() const { return db_; }
  const RewriteOptions& rewrite_options() const { return rewrite_options_; }

  /// The optimizer's plan cache (never null; may be disabled). The
  /// cache is also bypassed while the cost model is on: cost estimates
  /// depend on live table sizes, which the catalog version does not
  /// track.
  cache::PlanCache* plan_cache() const { return cache_.get(); }

 private:
  /// The full parse → bind → analyze → rewrite → [cost] → [verify] →
  /// lower pipeline, no cache involvement. `catalog_version` is the
  /// version read before preparing, which the stored decisions record.
  /// With `retained_bytes` non-null it receives the entry's size
  /// estimate for the cache's byte budget.
  Result<PreparedQuery> PrepareUncached(
      const std::string& sql, uint64_t catalog_version,
      size_t* retained_bytes = nullptr) const;

  bool CacheUsable() const { return cache_->enabled() && !use_cost_model_; }

  Database* db_;
  RewriteOptions rewrite_options_;
  bool use_cost_model_ = false;
  bool verify_plans_ = kVerifyPlansByDefault;
  bool check_equiv_ = equiv::kCheckEquivByDefault;
  bool advise_ = true;
  std::unique_ptr<cache::PlanCache> cache_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_UNIQOPT_OPTIMIZER_H_
