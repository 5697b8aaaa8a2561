#ifndef UNIQOPT_VERIFY_PROOF_CHECKER_H_
#define UNIQOPT_VERIFY_PROOF_CHECKER_H_

#include "fd/attribute_set.h"
#include "verify/verify.h"

namespace uniqopt {
namespace verify {

/// Re-verifies every uniqueness claim attached to the prepared query
/// with a deliberately simple reference implementation, independent of
/// the production Algorithm 1 machinery:
///  - a naive O(n^2) fixpoint bound-column closure that classifies
///    equality atoms by direct ExprKind inspection (no CNF normalizer,
///    no shared ClassifyAtom);
///  - an exhaustive candidate-key coverage scan (every key of every
///    table, no early exit);
///  - a recursive duplicate-freeness judgment for the Theorem 3 /
///    Corollary operand claims.
/// Any divergence from the production verdict — in either direction —
/// is a violation, plus internal-consistency checks of the recorded
/// ProofTrace itself. Appends findings to `report`.
void CheckProofs(const VerifyInput& input, VerifyReport* report);

/// Reference bound-column closure, exposed for tests: starting from
/// `initially_bound` over a `width`-column frame, binds every column
/// equated to a literal/host variable and closes transitively over
/// column=column equalities, honoring the ablation switches in
/// `options`. Conjuncts that are not atomic equalities are skipped.
AttributeSet ReferenceClosure(const std::vector<ExprPtr>& conjuncts,
                              const AttributeSet& initially_bound,
                              const AnalysisOptions& options,
                              bool* any_equality_kept = nullptr);

/// Reference duplicate-freeness judgment, exposed for tests: a sound,
/// possibly weaker re-derivation of DerivedProperties::IsDuplicateFree
/// by structural recursion (π_Dist / ∩_Dist / GROUP BY / keyed base
/// tables / reference Algorithm 1 for π_All specifications).
bool ReferenceDuplicateFree(const PlanPtr& plan,
                            const Algorithm1Options& options);

}  // namespace verify
}  // namespace uniqopt

#endif  // UNIQOPT_VERIFY_PROOF_CHECKER_H_
