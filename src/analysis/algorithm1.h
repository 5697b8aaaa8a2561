#ifndef UNIQOPT_ANALYSIS_ALGORITHM1_H_
#define UNIQOPT_ANALYSIS_ALGORITHM1_H_

#include <string>
#include <vector>

#include "analysis/proof.h"
#include "analysis/properties.h"
#include "analysis/shape.h"
#include "common/result.h"
#include "fd/attribute_set.h"
#include "obs/advisor.h"

namespace uniqopt {

/// Options for the paper's Algorithm 1 (§4) on top of the shared
/// analysis switches.
struct Algorithm1Options : AnalysisOptions {
  /// Reproduce the published algorithm exactly, including line 10's
  /// `if C = T then return NO`. When false (default), a predicate that
  /// reduces to TRUE proceeds with V = A, so purely-projective queries
  /// such as `SELECT DISTINCT * FROM R` are recognized (a sound
  /// strengthening the paper's theorem clearly admits).
  bool verbatim_line10 = false;
};

/// Outcome of Algorithm 1, with the structured proof the paper walks
/// through in Example 5.
struct Algorithm1Result {
  bool yes = false;  ///< YES: duplicate elimination is unnecessary.
  /// Normalization decisions, closure steps and per-key outcomes.
  ProofTrace proof;
  /// On NO: the minimal missing fact for the first failing table
  /// (populated when options.collect_near_misses).
  std::vector<obs::NearMiss> near_misses;
};

/// Line 5 of Algorithm 1: the top-level conjuncts of the CNF of each of
/// `predicates`, in order. Fails when a predicate exceeds
/// kDefaultNormalizeBudget.
Result<std::vector<ExprPtr>> CnfConjuncts(
    const std::vector<ExprPtr>& predicates);

/// The bound-column closure at the heart of Algorithm 1 and of the
/// Theorem 2 test: starting from `initially_bound`, add every column
/// equated to a constant or host variable (Type 1), then close
/// transitively over column=column equalities (Type 2). Conjuncts that
/// are not atomic Type 1/2 equalities are deleted first (lines 6–9),
/// which only weakens the tested condition — sound.
///
/// `conjuncts` are the top-level conjuncts of the predicate (each may
/// still be a disjunction, which gets deleted). Returns the closed set V.
/// When `proof` is non-null its conjuncts / initially_bound /
/// closure_steps / closure fields are filled in (`proof->column_names`
/// should already hold the frame's display names).
AttributeSet BoundColumnClosure(const std::vector<ExprPtr>& conjuncts,
                                const AttributeSet& initially_bound,
                                const AnalysisOptions& options,
                                bool* any_equality_kept,
                                ProofTrace* proof = nullptr);

/// Line 17 for one FROM table: true iff some candidate key of `table`
/// (UNIQUE keys only under `options.use_unique_keys`), shifted to the
/// table's first frame position `shift`, lies inside `bound`. When
/// `proof` is non-null each key tested, up to the first covered one, is
/// recorded against `alias`.
bool KeyCovered(const TableDef& table, const std::string& alias,
                size_t shift, const AttributeSet& bound,
                const AnalysisOptions& options, ProofTrace* proof);

/// Runs Algorithm 1 on a decomposed query specification: returns YES iff
/// for every FROM table some candidate key is contained in the closure
/// of the projection attributes. Implements lines 1–20 of the paper,
/// generalized to n tables (the paper's stated extension).
Result<Algorithm1Result> RunAlgorithm1(const SpecShape& shape,
                                       const Algorithm1Options& options = {});

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_ALGORITHM1_H_
