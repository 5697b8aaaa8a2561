#ifndef UNIQOPT_EQUIV_EQUIV_H_
#define UNIQOPT_EQUIV_EQUIV_H_

#include <string>

#include "rewrite/rewriter.h"

namespace uniqopt {
namespace equiv {

/// Default for the equivalence prover: every build certifies every
/// applied rewrite. Runtime code paths consult the per-optimizer toggle
/// (Optimizer::set_check_equiv), which is initialized from this constant.
inline constexpr bool kCheckEquivByDefault = true;

/// The verdict lattice. kProven: the before/after plans denote the same
/// multiset of rows under the declared constraints, re-derived here from
/// keys/CHECKs/FKs alone. kUnproven: the prover cannot certify the
/// rewrite — an honest coverage gap, not a failure. kRefuted: a symbolic
/// counterexample exists — a constraint assignment under which the two
/// sides produce different multiplicities. Refutation of a production
/// rewrite is always a bug in the optimizer or the prover.
enum class Verdict { kProven, kUnproven, kRefuted };

/// "EQUIV_PROVEN" / "EQUIV_UNPROVEN" / "EQUIV_REFUTED".
const char* VerdictName(Verdict v);

/// The prover's output for one applied rewrite.
struct Certificate {
  Verdict verdict = Verdict::kUnproven;
  std::string rule;     ///< RewriteRuleIdToString of the certified rule.
  std::string method;   ///< Which proof obligation decided the verdict.
  std::string detail;   ///< Justification (proven) or the gap (unproven).
  std::string witness;  ///< Symbolic counterexample; non-empty iff refuted.

  /// "EQUIV_X rule [method]: detail" one-liner (witness on its own
  /// lines when present).
  std::string ToString() const;
};

/// Certifies one applied rewrite against the catalog constraints carried
/// by its own plan subtrees. Both evidence sides are normalized into
/// canonical algebra form and matched structurally; semantic obligations
/// (duplicate-freeness, at-most-one match, 3VL null behavior of the
/// correlation, CHECK implication) are discharged from declared
/// keys/FDs/CHECKs only. Pure and side-effect free; shares no code with
/// src/analysis/ — a second opinion by construction.
Certificate CertifyRewrite(const AppliedRewrite& rewrite);

}  // namespace equiv
}  // namespace uniqopt

#endif  // UNIQOPT_EQUIV_EQUIV_H_
