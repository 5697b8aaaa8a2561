#ifndef UNIQOPT_ANALYSIS_SUBQUERY_H_
#define UNIQOPT_ANALYSIS_SUBQUERY_H_

#include <string>
#include <vector>

#include "analysis/proof.h"
#include "analysis/properties.h"
#include "common/result.h"
#include "obs/advisor.h"
#include "plan/plan.h"

namespace uniqopt {

/// Result of testing Theorem 2's condition on an existential subquery.
struct SubqueryVerdict {
  /// Theorem 2: for every outer row, at most one inner row can satisfy
  /// C_S ∧ C_{R,S} (every inner table's key is bound by constants, host
  /// variables, outer columns, or transitively via equalities). When
  /// true, EXISTS ⇔ plain join under ALL semantics.
  bool at_most_one_match = false;
  /// Structured closure/key-coverage proof over the outer ⊕ inner frame.
  ProofTrace proof;
  /// On NOT PROVEN: the minimal missing facts for the first inner table
  /// whose key coverage failed (feeds the constraint advisor).
  std::vector<obs::NearMiss> near_misses;

  /// Multi-line explanation of the Theorem 2 test.
  std::string ExplainProof() const;
};

/// Tests Theorem 2's uniqueness condition for `node` (a positive
/// existential semi-join). The outer columns [0, outer_width) act as
/// per-row constants; the test runs the Algorithm-1 bound-column closure
/// over the combined correlation predicate and checks key coverage of
/// every inner base table.
Result<SubqueryVerdict> TestSubqueryAtMostOneMatch(
    const ExistsNode& node, const AnalysisOptions& options = {});

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_SUBQUERY_H_
