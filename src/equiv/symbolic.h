#ifndef UNIQOPT_EQUIV_SYMBOLIC_H_
#define UNIQOPT_EQUIV_SYMBOLIC_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "types/schema.h"

namespace uniqopt {
namespace equiv {

/// One base table inside a decomposed select/product block, placed at
/// its column offset within the block's concatenated row.
struct SymbolicTable {
  const GetNode* get = nullptr;
  size_t offset = 0;
};

/// A select/project/product block in normal form: base tables at fixed
/// offsets, the flattened conjunct set over the concatenated row, and
/// (when decomposed from a projection) the projection map. This is the
/// prover's own decomposition — it deliberately shares nothing with
/// src/analysis/ so the equivalence verdict stays a second opinion.
struct SymbolicSpec {
  std::vector<SymbolicTable> tables;
  std::vector<ExprPtr> conjuncts;  ///< AND-flattened; TRUE dropped.
  size_t width = 0;                ///< Concatenated row width.
  std::vector<size_t> columns;     ///< Projection map (top Project only).
  DuplicateMode mode = DuplicateMode::kAll;
  bool has_exists_filter = false;  ///< An ExistsNode filter was skipped.
};

/// Decomposes a σ/×/Get subtree (EXISTS filters are skipped over and
/// flagged). Fails on Project/SetOp/Aggregate nodes inside the block.
bool DecomposeBlock(const PlanPtr& plan, SymbolicSpec* spec);

/// Decomposes `Project(block)`; the top node must be a projection.
bool DecomposeProjection(const PlanPtr& plan, SymbolicSpec* spec);

/// A recognized equality conjunct: column = column (the paper's Type 2
/// search condition) or column = literal/host-variable (Type 1).
struct EqualityAtom {
  bool column_pair = false;
  size_t left = 0;      ///< Column index.
  size_t right = 0;     ///< Column index when `column_pair`.
  ExprPtr bound_value;  ///< Literal / host var when `!column_pair`.
};

/// Classifies a single conjunct; nullopt for anything that is not a
/// plain `=` atom of the two types above.
std::optional<EqualityAtom> ClassifyEqualityAtom(const ExprPtr& expr);

/// Fixpoint closure of `bound` under the spec's equality atoms: Type 1
/// atoms bind their column, Type 2 atoms propagate membership both ways.
std::vector<char> CloseOverEqualities(const SymbolicSpec& spec,
                                      std::vector<char> bound);

/// True when every table in `spec` has some candidate key whose columns
/// all lie in `bound`. On failure `first_uncovered` (if non-null) gets
/// the index (into spec.tables) of the first uncovered table.
bool AllKeysCovered(const SymbolicSpec& spec, const std::vector<char>& bound,
                    size_t* first_uncovered);

/// Independent structural duplicate-freeness judgment over a plan
/// subtree, from declared keys and GROUP BY columns only (no FD engine —
/// that is the point).
bool SymbolicallyDuplicateFree(const PlanPtr& plan);

/// Input to the two-row chase refutation: construct two rows of the
/// block's product that agree on every `bound` column, satisfy every
/// conjunct and every declared constraint, yet differ on table
/// `uncovered_table` — a constraint assignment under which π_Dist and
/// π_All multiplicities differ.
struct WitnessRequest {
  const SymbolicSpec* spec = nullptr;
  /// Full-width schema of the block row (names + types for the witness).
  const Schema* frame = nullptr;
  std::vector<char> bound;  ///< Closure; the rows must agree here.
  size_t uncovered_table = 0;
};

/// Attempts the chase construction. Returns the symbolic witness text on
/// success; nullopt when a soundness guard refuses (the guard is written
/// to `blocked_reason`), in which case the caller must report
/// EQUIV_UNPROVEN rather than EQUIV_REFUTED.
std::optional<std::string> BuildDuplicateWitness(const WitnessRequest& req,
                                                 std::string* blocked_reason);

/// Three-way outcome of a bounded test-point analysis. kUndecided is the
/// honest answer whenever the candidate set is not provably exhaustive
/// for the column's type and predicate shape.
enum class TestPointResult { kHolds, kFails, kUndecided };

/// Does every storable non-NULL value of `table.schema().column(ordinal)`
/// — every value its single-column CHECK constraints accept — make `pred`
/// TRUE? `pred` must reference exactly column `frame_col` of a
/// `frame_width`-wide row. kUndecided when no single-column CHECK governs
/// the column, a host variable appears, or the type precludes an exact
/// test-point set.
TestPointResult CheckImpliesPredicate(const TableDef& table, size_t ordinal,
                                      const ExprPtr& pred, size_t frame_col,
                                      size_t frame_width);

/// Is there no storable value of the column (NULL included when
/// `nullable`) for which `pred` evaluates to TRUE? kHolds certifies the
/// selection is empty whenever `pred` is among its false-interpreted
/// conjuncts.
TestPointResult CheckExcludesPredicate(const TableDef& table, size_t ordinal,
                                       const ExprPtr& pred, size_t frame_col,
                                       size_t frame_width, bool nullable);

}  // namespace equiv
}  // namespace uniqopt

#endif  // UNIQOPT_EQUIV_SYMBOLIC_H_
