#ifndef UNIQOPT_VERIFY_VERIFY_H_
#define UNIQOPT_VERIFY_VERIFY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/algorithm1.h"
#include "analysis/uniqueness.h"
#include "equiv/equiv.h"
#include "plan/plan.h"
#include "rewrite/rewriter.h"

namespace uniqopt {
namespace verify {

/// The two analyzers of the post-optimization verifier: plan lint checks
/// structure, the equivalence prover (src/equiv/) checks semantics. Each
/// violation names the analyzer that raised it so dashboards and tests
/// can slice by failure class.
enum class Analyzer {
  kPlanLint,     ///< structural invariants of the optimized plan tree
  kEquivProver,  ///< symbolic bag-semantics equivalence certificates
};

const char* AnalyzerName(Analyzer a);

/// Closed set of verifier finding codes. An enum rather than free-form
/// strings so a new analyzer cannot silently collide slugs and every
/// switch over codes is exhaustiveness-checked under -Werror.
enum class ViolationCode {
  // plan-lint
  kMissingOptimizedPlan,
  kDanglingColumnRef,
  kSchemaWidthMismatch,
  kSchemaTypeMismatch,
  kSetOpIncompatibleOperands,
  kRewriteWithoutProvenCondition,
  kRewriteMissingSubtrees,
  kRewriteMissingEvidence,
  kDistinctDroppedWithoutProof,
  // equiv-prover
  kEquivRefuted,
};

/// The stable machine-readable slug, e.g. "dangling-column-ref".
const char* ViolationCodeName(ViolationCode code);

/// One verifier finding. `code` is the stable machine-readable slug;
/// `message` carries the human detail; `context` is a rendering of the
/// offending node, proof, or counterexample witness for diagnostics.
struct Violation {
  Analyzer analyzer = Analyzer::kPlanLint;
  ViolationCode code = ViolationCode::kMissingOptimizedPlan;
  std::string message;
  std::string context;

  std::string ToString() const;
};

/// Aggregate result of one verifier run. Feeds the
/// `verify.plan.violations` counter, the flight recorder's QueryRecord,
/// EXPLAIN output, and the shell's \verify command.
struct VerifyReport {
  std::vector<Violation> violations;
  /// One equivalence certificate per applied rewrite, in application
  /// order (empty when the prover is off or nothing was rewritten).
  std::vector<equiv::Certificate> certificates;
  /// Work counter, for "the verifier actually looked" assertions.
  size_t nodes_checked = 0;
  /// Equivalence-prover verdict tallies over `certificates`.
  size_t equiv_proven = 0;
  size_t equiv_unproven = 0;
  size_t equiv_refuted = 0;

  bool Clean() const { return violations.empty(); }

  /// One-line rollup, e.g.
  /// "clean (17 node(s), equiv 1 proven / 0 unproven / 0 refuted)".
  std::string Summary() const;
  /// Multi-line report: the summary plus one block per violation.
  std::string ToString() const;
};

/// Everything the verifier needs about one prepared query. The verifier
/// lives below the optimizer facade, so it takes the pieces rather than
/// a PreparedQuery. Only `optimized` is mandatory; absent fields skip
/// the checks that need them.
struct VerifyInput {
  /// Bound, pre-rewrite plan (enables the DISTINCT-dropped lint).
  PlanPtr original;
  /// The plan the optimizer will execute. Required.
  PlanPtr optimized;
  /// Rewrite audit trail with attached evidence.
  const std::vector<AppliedRewrite>* rewrites = nullptr;
  /// The optimizer's standalone DISTINCT verdict for `original`, and the
  /// analysis switches it ran under. No analyzer reads either; they stay
  /// for callers that still set them.
  const UniquenessVerdict* analysis = nullptr;
  Algorithm1Options options;
  /// Run the symbolic equivalence prover over `rewrites`. A refuted
  /// certificate raises a kEquivRefuted violation; unproven ones are
  /// tallied but are not failures.
  bool check_equiv = equiv::kCheckEquivByDefault;
};

/// Runs plan lint and, when `check_equiv` is set, the equivalence prover,
/// and returns the combined report. Increments verify.runs /
/// verify.clean / verify.plan.violations.
VerifyReport VerifyPlan(const VerifyInput& input);

}  // namespace verify
}  // namespace uniqopt

#endif  // UNIQOPT_VERIFY_VERIFY_H_
