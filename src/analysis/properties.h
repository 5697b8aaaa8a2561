#ifndef UNIQOPT_ANALYSIS_PROPERTIES_H_
#define UNIQOPT_ANALYSIS_PROPERTIES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "fd/functional_dependency.h"
#include "plan/plan.h"

namespace uniqopt {

/// Knobs controlling which semantic information property derivation may
/// exploit. Each switch corresponds to an ingredient of the paper's
/// Algorithm 1 (and its extensions); the ablation benchmark toggles them.
struct AnalysisOptions {
  /// Consider UNIQUE candidate keys in addition to the primary key.
  bool use_unique_keys = true;
  /// Harvest `col = constant` / `col = :hostvar` predicates (Type 1).
  bool bind_constants = true;
  /// Harvest `col = col` predicates and close transitively (Type 2).
  bool use_column_equivalence = true;
  /// Derive constant columns from CHECK table constraints that pin a
  /// NOT NULL column to a single value (paper §3.2: "inferred through
  /// ... table constraints"). CHECKs are true-interpreted, so a nullable
  /// column pinned by CHECK may still be NULL and is NOT constant
  /// under `=!`.
  bool use_check_constraints = false;
  /// Emit structured NearMiss records (minimal missing key/FD facts) at
  /// proof-failure sites, feeding the constraint advisor. Off by default
  /// so raw analyzer callers (benches, the verifier's reference checker)
  /// pay nothing; Optimizer::Prepare switches it on while advising.
  bool collect_near_misses = false;
};

/// Most derived keys kept per plan node. Key(R × S) = Key(R) ⊕ Key(S)
/// doubles with every self-joined two-key table; dropping keys beyond
/// this bound is sound, since every key kept is still a key.
inline constexpr size_t kMaxDerivedKeys = 64;

/// Derived-table properties of a plan node: the functional dependencies
/// (over the node's output columns, null-aware per Definition 1) and the
/// derived candidate keys (attribute sets no two output rows agree on
/// under `=!` — the paper's derived key dependencies), at most
/// kMaxDerivedKeys of them.
struct DerivedProperties {
  size_t width = 0;
  FdSet fds;
  std::vector<AttributeSet> keys;

  /// True when some derived key exists, i.e. the output provably
  /// contains no duplicate rows (the precondition of Theorem 3 and
  /// Corollaries 1–2).
  bool IsDuplicateFree() const { return !keys.empty(); }

  std::string ToString() const;
};

/// Bottom-up derivation of FDs and keys for every operator of the §2.2
/// algebra. Sound: every reported FD/key holds in all instances; not
/// complete (exact derivation is undecidable / exponential — Klug,
/// Darwen).
DerivedProperties DeriveProperties(const PlanPtr& plan,
                                   const AnalysisOptions& options = {});

/// Harvests FDs implied by a WHERE predicate holding (false-interpreted)
/// on every row of a table with `width` columns:
///   - Type 1 atoms (`col = const`, `col = :hv`) yield ∅ → col;
///   - Type 2 atoms (`col1 = col2`) yield col1 ↔ col2.
/// Only top-level conjuncts contribute; disjunctions are ignored
/// (soundly). Controlled by `options.bind_constants` /
/// `options.use_column_equivalence`.
void HarvestPredicateFds(const ExprPtr& predicate,
                         const AnalysisOptions& options, FdSet* fds);

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_PROPERTIES_H_
