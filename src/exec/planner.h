#ifndef UNIQOPT_EXEC_PLANNER_H_
#define UNIQOPT_EXEC_PLANNER_H_

#include <cstdint>
#include <memory>
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

  bool operator==(const PhysicalOptions&) const = default;

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

/// Lowering in two steps: deciding, once per plan, and building, once
/// per execution.
///
/// Decide works out everything lowering needs from the plan and the
/// schema: which tables the Gets read, the access path of every σ over a
/// Get (a unique-index probe when its equality conjuncts cover a declared
/// key), the join shape (unique-index join, hash join or nested loops)
/// and its keys, the predicate split and pushdown, the compiled
/// PredicatePrograms, output columns, index display names and the shape
/// of the EXPLAIN ANALYZE profile. It reads Database::GetTable and
/// TableDef keys, never data, so a PhysicalPlan holds no snapshot, row,
/// batch or operator, and stays valid until the catalog changes.
///
/// Build makes a fresh operator tree whose operators borrow schemas,
/// programs, key lists, output columns and names from the PhysicalPlan;
/// the tree keeps the plan alive. Operators pin their table snapshots at
/// Open and release them when the tree is destroyed, so a kept
/// PhysicalPlan keeps no table version alive.
///
/// Immutable once decided: concurrent Builds of one plan are safe.
class PhysicalPlan : public std::enable_shared_from_this<PhysicalPlan> {
 public:
  /// One decided operator (defined in planner.cc).
  struct Node;

  /// Decides how `plan` runs over `db` under `options`, at
  /// `catalog_version`, the catalog version the caller read before it
  /// prepared or bound `plan`. Counts every call in the `exec.lowerings`
  /// registry counter. Fails when a Get's table is gone.
  static Result<std::shared_ptr<const PhysicalPlan>> Decide(
      PlanPtr plan, const Database& db, const PhysicalOptions& options,
      uint64_t catalog_version);

  ~PhysicalPlan();

  /// A fresh operator tree. With `profile` non-null every decided
  /// profile slot (a plan node, or a join input under pushed-down
  /// conjuncts) is wrapped in a metering ProfileOp feeding it, in
  /// preorder.
  OperatorPtr Build(ExecProfile* profile = nullptr) const;

  /// Whether these decisions hold for `plan` under `options` at
  /// `catalog_version`: the same plan object, the same options, and no
  /// catalog change since they were made.
  bool Holds(const PlanPtr& plan, const PhysicalOptions& options,
             uint64_t catalog_version) const {
    return plan == plan_ && options == options_ &&
           catalog_version == catalog_version_;
  }

  /// Approximate bytes the decisions keep (the plan cache charges them).
  size_t ApproxBytes() const;

 private:
  PhysicalPlan(PlanPtr plan, const PhysicalOptions& options,
               uint64_t catalog_version, std::vector<Node> nodes);

  /// Keeps every plan node alive: operators borrow their schemas and
  /// set-op, semi-join and aggregate parameters from them.
  PlanPtr plan_;
  PhysicalOptions options_;
  uint64_t catalog_version_;
  /// The decided operators in preorder, the root first.
  std::vector<Node> nodes_;
};

/// Decides and builds `plan` over `db` (see PhysicalPlan); the returned
/// tree keeps its decisions alive. With `profile` non-null every lowered
/// plan node is wrapped in a metering ProfileOp feeding that profile
/// (EXPLAIN ANALYZE).
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
