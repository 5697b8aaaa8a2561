#ifndef UNIQOPT_REWRITE_REWRITER_H_
#define UNIQOPT_REWRITE_REWRITER_H_

#include <string>
#include <vector>

#include "analysis/uniqueness.h"
#include "common/result.h"
#include "obs/advisor.h"
#include "plan/plan.h"

namespace uniqopt {

/// The semantic rewrites of §5–§6, each gated on a uniqueness condition
/// proved by the analysis layer.
enum class RewriteRuleId {
  /// §5.1 / Theorem 1: π_Dist → π_All when the uniqueness condition
  /// holds; also ∩_Dist → ∩_All / −_Dist → −_All when an operand is
  /// duplicate-free (the observation before Corollary 2).
  kRemoveRedundantDistinct,
  /// §5.2 / Theorem 2: positive EXISTS → plain join when at most one
  /// inner row can match each outer row.
  kSubqueryToJoin,
  /// §5.2 / Corollary 1: EXISTS → DISTINCT join when the outer block is
  /// duplicate-free (Example 8), or when the projection is already
  /// DISTINCT.
  kSubqueryToDistinctJoin,
  /// §5.3 / Theorem 3: ∩_Dist → EXISTS with null-safe correlation when
  /// one operand is duplicate-free.
  kIntersectToExists,
  /// §5.3 / Corollary 2: ∩_All → EXISTS under the same condition.
  kIntersectAllToExists,
  /// §5.3 (sketched; "space restrictions" in the paper): − [ALL] →
  /// NOT EXISTS when the left operand is duplicate-free.
  kExceptToNotExists,
  /// §6: join → subquery for navigational back ends; valid when the
  /// projection uses only one side's columns and either the projection
  /// is DISTINCT or the discarded side matches at most once.
  kJoinToSubquery,
  /// §7 future work, implemented here: King-style join elimination via
  /// inclusion dependencies. A table joined only through a declared
  /// NOT NULL foreign key onto one of its candidate keys, contributing
  /// no projection columns and no other predicates, matches exactly
  /// once per referencing row and can be dropped from the query graph.
  kJoinElimination,
  /// §7 future work ("transformations based on true-interpreted
  /// predicates"): a WHERE conjunct implied by the CHECK constraints of
  /// a NOT NULL column is removed.
  kRemoveImpliedPredicate,
  /// Same machinery, the other direction: a conjunct contradicted by
  /// the CHECK constraints proves the result empty; the selection
  /// collapses to FALSE and the executor skips the scan.
  kDetectEmptyResult,
  /// GROUP BY extension: when the group columns functionally determine
  /// a key of the input, every group holds exactly one row, so
  /// SUM/MIN/MAX aggregates equal their argument and the aggregation
  /// becomes a plain projection (no hash/sort work).
  kEliminateGroupByOnKey,
  /// §5.3's converse observation: "we now have a means of converting a
  /// nested query specification to a query expression involving
  /// intersection". An EXISTS whose correlation is exactly the
  /// null-safe column-wise equality becomes an INTERSECT when the outer
  /// block is duplicate-free — another strategy-space expansion.
  kExistsToIntersect,
};

const char* RewriteRuleIdToString(RewriteRuleId id);

struct RewriteOptions {
  Algorithm1Options analysis;
  bool remove_redundant_distinct = true;
  bool subquery_to_join = true;
  bool subquery_to_distinct_join = true;
  bool intersect_to_exists = true;
  bool intersect_all_to_exists = true;
  bool except_to_not_exists = true;
  /// Off by default: beneficial for navigational (IMS / OO) back ends,
  /// usually not for relational executors (§6, §7 discussion).
  bool join_to_subquery = false;
  /// §7 extension: prune provably redundant joins via inclusion
  /// dependencies (foreign keys).
  bool join_elimination = true;
  /// §7 extension: simplify WHERE conjuncts against CHECK constraints
  /// (drop implied conjuncts, detect empty results).
  bool semantic_predicates = true;
  /// GROUP BY extension: turn single-row-group aggregation into
  /// projection when the group columns cover a derived key.
  bool group_by_elimination = true;
  /// Off by default (it is the inverse of intersect_to_exists; enabling
  /// both would ping-pong): convert a null-safe-equality EXISTS into an
  /// INTERSECT for set-operation execution strategies.
  bool exists_to_intersect = false;
};

/// Soundness evidence attached to every applied rewrite: the node the
/// rule consumed and produced plus the proof (or derived facts) that
/// discharged the gating theorem's precondition. The post-optimization
/// verifier (src/verify/) hands the before/after pair to the equivalence
/// prover (src/equiv/), which shares no code with src/analysis/; a
/// rewrite without evidence is itself a verifier violation.
struct RewriteEvidence {
  /// The full subtree the rule matched (pre-image), as an owned plan —
  /// never a rendering. The equivalence prover (src/equiv/) normalizes
  /// and matches this structure against `after`, so producers must hand
  /// over the complete matched node (e.g. the π(EXISTS) subtree for
  /// subquery→join, not just the inner ExistsNode).
  PlanPtr before;
  /// The full subtree the rule produced. For set-op→EXISTS rules this is
  /// the ExistsNode whose correlation the prover checks against `=!`.
  PlanPtr after;
  /// Closure/key-coverage proof when the gating analysis recorded one
  /// (Algorithm 1 for DISTINCT removal, Theorem 2 for subquery→join).
  ProofTrace proof;
  /// Human-readable facts for gates without a structured proof, e.g.
  /// "left operand duplicate-free: derived key {0}".
  std::vector<std::string> facts;
  /// True when the rule's semantic precondition was positively proven
  /// (every fired rewrite must set this; the verifier enforces it).
  bool condition_proven = false;
};

struct AppliedRewrite {
  RewriteRuleId rule;
  std::string description;
  RewriteEvidence evidence;
};

struct RewriteResult {
  PlanPtr plan;
  std::vector<AppliedRewrite> applied;
  /// Near-misses harvested at rule-rejection sites: proofs that failed
  /// by exactly one missing key/FD/NOT NULL fact. Possibly duplicated
  /// across sites; the optimizer dedups before publishing to the
  /// advisor.
  std::vector<obs::NearMiss> near_misses;

  bool Applied(RewriteRuleId id) const {
    for (const AppliedRewrite& r : applied) {
      if (r.rule == id) return true;
    }
    return false;
  }
};

/// Applies the enabled rules bottom-up until fixpoint. Every rewrite is
/// semantics-preserving under the multiset (ALL) semantics of §2.2,
/// gated on the corresponding theorem's condition. `plan_verdict`, when
/// given, is AnalyzeDistinct(plan, options.analysis): the DISTINCT gate
/// uses it for `plan` itself instead of running the analysis again.
Result<RewriteResult> RewritePlan(
    const PlanPtr& plan, const RewriteOptions& options = {},
    const UniquenessVerdict* plan_verdict = nullptr);

/// Builds the null-safe tuple-equivalence predicate of Theorem 3 over
/// Concat(left, right): for every column i,
///   (L.i IS NULL AND R.i IS NULL) OR L.i = R.i,
/// simplified to plain equality when both sides are NOT NULL (the
/// paper's footnote 1).
ExprPtr MakeNullSafeCorrelation(const Schema& left, const Schema& right);

}  // namespace uniqopt

#endif  // UNIQOPT_REWRITE_REWRITER_H_
