#ifndef UNIQOPT_ANALYSIS_PROOF_H_
#define UNIQOPT_ANALYSIS_PROOF_H_

#include <cstddef>
#include <string>
#include <vector>

namespace uniqopt {

/// What happened to one top-level conjunct during Algorithm 1's
/// normalization pass (lines 6–9 of the paper).
enum class ConjunctDisposition {
  kKeptType1,           ///< col = constant / host variable, kept
  kKeptType2,           ///< col = col, kept
  kDeletedDisjunction,  ///< disjunctive conjunct, deleted (line 7)
  kDeletedNonEquality,  ///< range / IS NULL / ..., deleted (line 9)
  kDeletedBySwitch,     ///< usable, but the ablation switch disabled it
};

const char* ConjunctDispositionName(ConjunctDisposition d);

struct ProofConjunct {
  std::string text;
  ConjunctDisposition disposition = ConjunctDisposition::kDeletedNonEquality;
};

/// One column entering the bound set V, with the conjunct responsible.
struct ProofClosureStep {
  size_t column = 0;        ///< position in the analysis frame
  std::string column_name;  ///< display name for that position
  std::string via;          ///< text of the conjunct that bound it
  /// 0 = Type 1 seeding (line 13–14); n ≥ 1 = n-th transitive-closure
  /// pass over Type 2 equalities (lines 15–16).
  int round = 0;
};

/// Coverage test of one candidate key against the final V (line 17).
struct ProofKeyOutcome {
  std::string table;
  std::string alias;
  std::string key_name;
  std::vector<std::string> key_columns;
  /// Key columns not in V.
  std::vector<std::string> missing_columns;

  /// The key is covered iff none of its columns is missing from V.
  bool covered() const { return missing_columns.empty(); }
};

/// Machine-readable record of one uniqueness proof: every normalization
/// decision, every closure step, and every candidate-key outcome. Built
/// by Algorithm 1 / the Theorem 2 test; rendered by
/// UniquenessVerdict::ExplainProof().
struct ProofTrace {
  /// False when a detector other than Algorithm 1 / the Theorem 2 test
  /// answered; ToText() says so instead of showing an empty proof.
  bool recorded = false;

  /// Frame position → display name, set by the caller that knows the
  /// frame layout (product schema, or outer ⊕ inner for subqueries).
  std::vector<std::string> column_names;

  std::vector<ProofConjunct> conjuncts;
  std::vector<std::string> initially_bound;
  std::vector<ProofClosureStep> closure_steps;
  /// The final bound set V, as display names.
  std::vector<std::string> closure;
  std::vector<ProofKeyOutcome> keys;
  /// Final verdict line, e.g. "YES: every table has a covered key".
  std::string conclusion;

  /// Display name for a frame position ("col<i>" when unknown).
  std::string NameOf(size_t position) const;

  /// Multi-line human rendering of the whole proof.
  std::string ToText() const;
};

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_PROOF_H_
