#ifndef UNIQOPT_EXEC_PLANNER_H_
#define UNIQOPT_EXEC_PLANNER_H_

#include <vector>

#include "exec/operator.h"
#include "exec/profile.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace uniqopt {

/// Physical strategy knobs. The logical rewrites of the paper expand the
/// strategy space; these options let benchmarks pin each strategy and
/// compare (the optimizer's cost model is out of the paper's scope).
struct PhysicalOptions {
  enum class JoinStrategy { kNestedLoop, kHash };
  enum class DistinctStrategy { kSort, kHash };

  JoinStrategy join = JoinStrategy::kHash;
  /// The paper assumes duplicate elimination costs a sort (§1); kSort is
  /// therefore the default baseline implementation.
  DistinctStrategy distinct = DistinctStrategy::kSort;
  /// Execute INTERSECT (DISTINCT) by the classic evaluate-sort-merge
  /// strategy (§5.3) instead of hashing.
  bool sort_merge_intersect = false;
  /// Push single-side conjuncts of a Select-over-Product below the join.
  bool predicate_pushdown = true;
  /// Rows per batch on the vectorized NextBatch path (scans hand out
  /// zero-copy views, filters compact selection vectors). 0 reverts to
  /// tuple-at-a-time Volcano iteration.
  size_t batch_size = RowBatch::kDefaultBatchSize;
  /// Lower equality predicates that cover a declared unique key to
  /// index point lookups, and join builds whose build side is a bare
  /// keyed Get to unique-index probes (the committed index IS the hash
  /// table, so the build phase disappears). Off reverts to scans and
  /// classic hash builds — the benchmark baseline.
  bool use_indexes = true;

  /// Folds every knob into one salt word. The optimizer's plan-cache
  /// key leaves it out (a prepared entry does not depend on physical
  /// options); reqbench's traced replay still mixes it into its key.
  uint64_t CacheSalt() const {
    uint64_t salt = 0;
    salt |= join == JoinStrategy::kHash ? 1u : 0u;
    salt |= distinct == DistinctStrategy::kHash ? 2u : 0u;
    salt |= sort_merge_intersect ? 4u : 0u;
    salt |= predicate_pushdown ? 8u : 0u;
    salt |= use_indexes ? 16u : 0u;
    salt |= static_cast<uint64_t>(batch_size & 0xffffffffu) << 16;
    return salt;
  }
};

/// Lowers a logical plan to an executable operator tree over `db`. With
/// `profile` non-null every lowered plan node is wrapped in a metering
/// ProfileOp feeding that profile (EXPLAIN ANALYZE).
Result<OperatorPtr> CreatePhysicalPlan(const PlanPtr& plan,
                                       const Database& db,
                                       const PhysicalOptions& options = {},
                                       ExecProfile* profile = nullptr);

/// Lower + execute in one step; options.batch_size selects the
/// vectorized NextBatch path.
Result<std::vector<Row>> ExecutePlan(const PlanPtr& plan, const Database& db,
                                     ExecContext* ctx,
                                     const PhysicalOptions& options = {},
                                     ExecProfile* profile = nullptr);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_PLANNER_H_
