#include "exec/planner.h"

#include <memory>
#include <optional>

#include "exec/index_exec.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace uniqopt {

namespace {

class Lowering {
 public:
  Lowering(const Database& db, const PhysicalOptions& options,
           ExecProfile* profile, ParallelLoweringHooks* hooks)
      : db_(db), options_(options), profile_(profile), hooks_(hooks) {}

  /// Lowers one plan node; with a profile attached, the node's operator
  /// (plus any helper operators lowered inline for it, e.g. pushed-down
  /// filters) is wrapped in a metering ProfileOp. Slots register before
  /// children are lowered, so the profile lists operators in preorder.
  Result<OperatorPtr> Lower(const PlanPtr& plan) {
    return Profiled([&] { return LowerNode(plan); });
  }

 private:
  /// Runs `lower` as one profiled operator slot (see Lower).
  template <typename LowerFn>
  Result<OperatorPtr> Profiled(const LowerFn& lower) {
    if (profile_ == nullptr) return lower();
    size_t slot = profile_->Reserve(depth_);
    ++depth_;
    Result<OperatorPtr> lowered = lower();
    --depth_;
    if (!lowered.ok()) return lowered;
    profile_->SetName(slot, (*lowered)->name());
    return OperatorPtr(new ProfileOp(std::move(*lowered), profile_, slot));
  }

  /// σ[predicate] over a bare keyed Get whose equality conjuncts cover a
  /// declared key is at most one row, so it can probe the unique index
  /// instead of scanning. Parallel lowerings keep the scan — a single
  /// probe has nothing to parallelize.
  std::optional<IndexLookupMatch> MatchKeyedInput(const PlanPtr& input,
                                                  const ExprPtr& predicate) {
    const GetNode* get = As<GetNode>(input);
    if (!options_.use_indexes || hooks_ != nullptr || get == nullptr) {
      return std::nullopt;
    }
    return MatchIndexLookup(get->table(), predicate);
  }

  Result<OperatorPtr> LowerIndexLookup(const GetNode& get,
                                       IndexLookupMatch match) {
    UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                             db_.GetTable(get.table().name()));
    ExprPtr residual = match.residual.empty()
                           ? nullptr
                           : Expr::MakeAnd(std::move(match.residual));
    return OperatorPtr(new IndexLookupOp(
        table, get.schema(), match.key_index, std::move(match.probes),
        std::move(residual), KeyDisplayName(get.table(), match.key_index)));
  }

  /// A join input under its pushed-down single-side conjuncts. A keyed
  /// input probes its index and shows as its own operator, like
  /// σ-over-Get; otherwise the conjuncts filter the lowered input.
  Result<OperatorPtr> LowerJoinInput(const PlanPtr& input,
                                     std::vector<ExprPtr> conjuncts) {
    if (conjuncts.empty()) return Lower(input);
    ExprPtr predicate = Expr::MakeAnd(std::move(conjuncts));
    if (std::optional<IndexLookupMatch> match =
            MatchKeyedInput(input, predicate)) {
      return Profiled([&] {
        return LowerIndexLookup(*As<GetNode>(input), std::move(*match));
      });
    }
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr lowered, Lower(input));
    return OperatorPtr(new FilterOp(std::move(lowered), predicate));
  }

  Result<OperatorPtr> LowerNode(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kGet:
        return LowerGet(*As<GetNode>(plan));
      case PlanKind::kSelect:
        return LowerSelect(*As<SelectNode>(plan));
      case PlanKind::kProject:
        return LowerProject(*As<ProjectNode>(plan));
      case PlanKind::kProduct: {
        const ProductNode& node = *As<ProductNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr l, Lower(node.left()));
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr r, Lower(node.right()));
        return OperatorPtr(
            new NestedLoopProductOp(std::move(l), std::move(r)));
      }
      case PlanKind::kExists:
        return LowerExists(*As<ExistsNode>(plan));
      case PlanKind::kSetOp:
        return LowerSetOp(*As<SetOpNode>(plan));
      case PlanKind::kAggregate: {
        const AggregateNode& node = *As<AggregateNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
        return OperatorPtr(new HashAggregateOp(std::move(child),
                                               node.schema(),
                                               node.group_columns(),
                                               node.aggregates()));
      }
    }
    return Status::Internal("unhandled plan kind in lowering");
  }

  Result<OperatorPtr> LowerGet(const GetNode& node) {
    if (hooks_ != nullptr && &node == hooks_->driver) {
      return OperatorPtr(new MorselScanOp(hooks_->driver_snapshot,
                                          node.schema(), hooks_->cursor));
    }
    UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                             db_.GetTable(node.table().name()));
    return OperatorPtr(new TableScanOp(table, node.schema()));
  }

  Result<OperatorPtr> LowerProject(const ProjectNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
    OperatorPtr project(
        new ProjectOp(std::move(child), node.columns()));
    if (node.mode() == DuplicateMode::kAll) return project;
    if (options_.distinct == PhysicalOptions::DistinctStrategy::kSort) {
      return OperatorPtr(new SortDistinctOp(std::move(project)));
    }
    return OperatorPtr(new HashDistinctOp(std::move(project)));
  }

  /// Select over a Product becomes a join: single-side conjuncts are
  /// pushed below (when enabled), crossing equi-conjuncts become hash
  /// join keys (when enabled), the rest stays as a residual/filter.
  Result<OperatorPtr> LowerSelect(const SelectNode& node) {
    // A constant-FALSE selection produces nothing; skip the input.
    if (node.predicate()->IsFalseLiteral()) {
      return OperatorPtr(new EmptySourceOp(node.schema()));
    }
    const ProductNode* product = As<ProductNode>(node.input());
    if (product == nullptr) {
      if (std::optional<IndexLookupMatch> match =
              MatchKeyedInput(node.input(), node.predicate())) {
        return LowerIndexLookup(*As<GetNode>(node.input()),
                                std::move(*match));
      }
      UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
      return OperatorPtr(new FilterOp(std::move(child), node.predicate()));
    }
    JoinSplit split = SplitJoinPredicate(
        node.predicate(), product->left()->schema().num_columns(), options_);
    // When the build side is a bare Get and the build-side equi-columns
    // are exactly a declared key, the committed unique index already IS
    // the hash table: probe it and skip the build phase entirely.
    if (!split.left_keys.empty() && options_.use_indexes &&
        hooks_ == nullptr) {
      const GetNode* right_get = As<GetNode>(product->right());
      if (right_get != nullptr) {
        std::optional<IndexJoinMatch> match = MatchUniqueIndexJoin(
            right_get->table(), split.left_keys, split.right_keys);
        if (match.has_value()) {
          UNIQOPT_ASSIGN_OR_RETURN(const Table* right_table,
                                   db_.GetTable(right_get->table().name()));
          UNIQOPT_ASSIGN_OR_RETURN(
              OperatorPtr left,
              LowerJoinInput(product->left(), std::move(split.left_only)));
          ExprPtr right_filter =
              split.right_only.empty()
                  ? nullptr
                  : Expr::MakeAnd(std::move(split.right_only));
          ExprPtr res = split.residual.empty()
                            ? nullptr
                            : Expr::MakeAnd(std::move(split.residual));
          return OperatorPtr(new UniqueIndexJoinOp(
              std::move(left), right_table, right_get->schema(),
              match->key_index, std::move(match->left_keys),
              std::move(right_filter), std::move(res),
              KeyDisplayName(right_get->table(), match->key_index)));
        }
      }
    }
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr left,
        LowerJoinInput(product->left(), std::move(split.left_only)));
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr right,
        LowerJoinInput(product->right(), std::move(split.right_only)));
    ExprPtr res = split.residual.empty()
                      ? nullptr
                      : Expr::MakeAnd(std::move(split.residual));
    if (!split.left_keys.empty()) {
      if (hooks_ != nullptr) {
        // All worker lowerings hit this node (pointer identity — plan
        // nodes are shared, not copied, across lowerings), so the first
        // one creates the shared build and the rest reuse it.
        std::shared_ptr<SharedJoinBuild>& build =
            hooks_->shared_builds[&node];
        if (build == nullptr) {
          build = std::make_shared<SharedJoinBuild>(hooks_->build_partitions);
        }
        return OperatorPtr(new SharedHashJoinProbeOp(
            std::move(left), std::move(right), std::move(split.left_keys),
            std::move(split.right_keys), std::move(res), build));
      }
      return OperatorPtr(new HashJoinOp(std::move(left), std::move(right),
                                        std::move(split.left_keys),
                                        std::move(split.right_keys),
                                        std::move(res)));
    }
    OperatorPtr join(
        new NestedLoopProductOp(std::move(left), std::move(right)));
    if (res == nullptr) return join;
    return OperatorPtr(new FilterOp(std::move(join), std::move(res)));
  }

  Result<OperatorPtr> LowerExists(const ExistsNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr outer, Lower(node.outer()));
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr inner, Lower(node.sub()));
    size_t outer_width = node.outer()->schema().num_columns();
    if (options_.join == PhysicalOptions::JoinStrategy::kHash) {
      // Every correlation conjunct that is not an equi-pair stays in the
      // semi-join's residual.
      PhysicalOptions no_pushdown = options_;
      no_pushdown.predicate_pushdown = false;
      JoinSplit split =
          SplitJoinPredicate(node.correlation(), outer_width, no_pushdown);
      if (!split.left_keys.empty()) {
        ExprPtr res = split.residual.empty()
                          ? nullptr
                          : Expr::MakeAnd(std::move(split.residual));
        return OperatorPtr(new HashSemiJoinOp(
            std::move(outer), std::move(inner), std::move(split.left_keys),
            std::move(split.right_keys), std::move(res), node.negated()));
      }
    }
    return OperatorPtr(new NestedLoopSemiJoinOp(std::move(outer),
                                                std::move(inner),
                                                node.correlation(),
                                                node.negated()));
  }

  Result<OperatorPtr> LowerSetOp(const SetOpNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr left, Lower(node.left()));
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr right, Lower(node.right()));
    if (options_.sort_merge_intersect &&
        node.op() == SetOpAlgebra::kIntersect &&
        node.mode() == DuplicateMode::kDist) {
      return OperatorPtr(
          new SortMergeIntersectOp(std::move(left), std::move(right)));
    }
    return OperatorPtr(
        new SetOpOp(node.op(), node.mode(), std::move(left),
                    std::move(right)));
  }

  const Database& db_;
  const PhysicalOptions& options_;
  ExecProfile* profile_;
  ParallelLoweringHooks* hooks_;
  int depth_ = 0;
};

}  // namespace

Result<OperatorPtr> CreatePhysicalPlan(const PlanPtr& plan,
                                       const Database& db,
                                       const PhysicalOptions& options,
                                       ExecProfile* profile,
                                       ParallelLoweringHooks* hooks) {
  Lowering lowering(db, options, profile, hooks);
  return lowering.Lower(plan);
}

Result<std::vector<Row>> ExecutePlan(const PlanPtr& plan, const Database& db,
                                     ExecContext* ctx,
                                     const PhysicalOptions& options,
                                     ExecProfile* profile) {
  if (options.dop > 1) {
    UNIQOPT_ASSIGN_OR_RETURN(
        std::optional<std::vector<Row>> parallel,
        TryParallelExecute(plan, db, ctx, options, profile));
    if (parallel.has_value()) return std::move(*parallel);
    // Unsupported plan shape: fall through to the serial executor.
  }
  ctx->batch_size = options.batch_size;
  UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr root,
                           CreatePhysicalPlan(plan, db, options, profile));
  return ExecuteToVector(root.get(), ctx);
}

}  // namespace uniqopt
