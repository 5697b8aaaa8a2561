#ifndef UNIQOPT_VERIFY_PLAN_LINT_H_
#define UNIQOPT_VERIFY_PLAN_LINT_H_

#include "verify/verify.h"

namespace uniqopt {
namespace verify {

/// Structural lint of the optimized plan tree:
///  - every column reference binds to a column its producing child
///    actually outputs;
///  - each operator's recorded output schema is the one its children
///    imply (width and column types, operator by operator);
///  - a top-level DISTINCT present in the original plan may be absent
///    from the optimized plan only when a duplicate-affecting rewrite
///    fired with proof or derived-fact evidence attached;
///  - every applied rewrite carries complete evidence (before/after
///    subtrees, condition_proven, and a recorded proof or derived
///    facts).
/// Appends findings to `report`.
void LintPlan(const VerifyInput& input, VerifyReport* report);

}  // namespace verify
}  // namespace uniqopt

#endif  // UNIQOPT_VERIFY_PLAN_LINT_H_
