#ifndef UNIQOPT_EXEC_COST_MODEL_H_
#define UNIQOPT_EXEC_COST_MODEL_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/planner.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace uniqopt {

/// The paper's §5 stops at "the optimizer ... can then choose the most
/// appropriate strategy on the basis of its cost model". This module
/// supplies that cost model: cardinality estimation from live table
/// statistics (row counts, per-column distinct counts) and a work-unit
/// cost for a logical plan lowered under given PhysicalOptions,
/// mirroring the planner's operator choices.
///
/// Costs are abstract units (≈ one row touched); only *comparisons*
/// between alternatives are meaningful.
struct PlanEstimate {
  double rows = 0;  ///< estimated output cardinality
  double cost = 0;  ///< estimated total work
};

class CostEstimator {
 public:
  explicit CostEstimator(const Database* db) : db_(db) {}

  /// Estimated output cardinality of a logical plan.
  double EstimateRows(const PlanPtr& plan) const;

  /// Estimated execution cost of `plan` when lowered with `options`.
  PlanEstimate Estimate(const PlanPtr& plan,
                        const PhysicalOptions& options) const;

  /// Number of distinct (under `=!`) values in a base-table column,
  /// computed on first use and cached.
  double DistinctCount(const std::string& table, size_t column) const;

 private:
  /// Selectivity of a predicate over `plan`'s output (heuristic:
  /// equality via distinct counts, ranges 1/3, conjunction multiplies,
  /// disjunction adds).
  double Selectivity(const ExprPtr& predicate, const PlanPtr& input) const;
  double AtomSelectivity(const ExprPtr& atom, const PlanPtr& input) const;
  /// Distinct count of a column of an arbitrary plan's output (resolves
  /// through to base tables where possible; falls back to input
  /// cardinality).
  double ColumnDistinct(const PlanPtr& plan, size_t column) const;

  const Database* db_;
  /// One estimator may be shared by concurrent preparations (the
  /// optimizer's PrepareBatch costs plans from worker threads), and
  /// DistinctCount fills this cache from const methods — every access
  /// goes through the mutex.
  mutable std::mutex ndv_mu_;
  mutable std::map<std::pair<std::string, size_t>, double> ndv_cache_;
};

/// A physical alternative considered by the chooser.
struct PlanAlternative {
  PlanPtr plan;
  PhysicalOptions physical;
  std::string label;
  PlanEstimate estimate;
};

/// Costs every (plan, physical-options) candidate and returns the index
/// of the cheapest. `alternatives` gains filled-in estimates.
size_t ChooseBestAlternative(const CostEstimator& estimator,
                             std::vector<PlanAlternative>* alternatives);

/// Builds the standard candidate set for a query: the original and the
/// rewritten plan, each under hash and nested-loop/sort strategies
/// (and, for set operations, the sort-merge variant).
std::vector<PlanAlternative> StandardAlternatives(const PlanPtr& original,
                                                  const PlanPtr& rewritten);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_COST_MODEL_H_
