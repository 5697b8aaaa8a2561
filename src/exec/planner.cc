#include "exec/planner.h"

#include <optional>

#include "exec/index_exec.h"
#include "exec/operators.h"

namespace uniqopt {

namespace {

class Lowering {
 public:
  Lowering(const Database& db, const PhysicalOptions& options,
           ExecProfile* profile)
      : db_(db), options_(options), profile_(profile) {}

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
  /// instead of scanning.
  std::optional<IndexLookupMatch> MatchKeyedInput(const PlanPtr& input,
                                                  const ExprPtr& predicate) {
    const GetNode* get = As<GetNode>(input);
    if (!options_.use_indexes || get == nullptr) return std::nullopt;
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

  /// A join input under its pushed-down single-side conjuncts, shown as
  /// its own operator like σ-over-Get: a keyed input probes its index,
  /// any other is filtered by the conjuncts.
  Result<OperatorPtr> LowerJoinInput(const PlanPtr& input,
                                     std::vector<ExprPtr> conjuncts) {
    if (conjuncts.empty()) return Lower(input);
    ExprPtr predicate = Expr::MakeAnd(std::move(conjuncts));
    return Profiled([&]() -> Result<OperatorPtr> {
      if (std::optional<IndexLookupMatch> match =
              MatchKeyedInput(input, predicate)) {
        return LowerIndexLookup(*As<GetNode>(input), std::move(*match));
      }
      UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr lowered, Lower(input));
      return OperatorPtr(new FilterOp(std::move(lowered), predicate));
    });
  }

  Result<OperatorPtr> LowerNode(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kGet:
        return LowerGet(*As<GetNode>(plan));
      case PlanKind::kSelect:
        if (std::optional<EquiJoin> join = MatchEquiJoin(plan)) {
          return LowerEquiJoin(std::move(*join), {});
        }
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
    UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                             db_.GetTable(node.table().name()));
    return OperatorPtr(new TableScanOp(table, node.schema()));
  }

  /// σ over × whose predicate holds at least one crossing equi-pair
  /// (hash joins enabled): the shape that lowers to an equi-join, with
  /// its predicate split the way the join consumes it.
  struct EquiJoin {
    const ProductNode* product;
    JoinSplit split;
  };

  std::optional<EquiJoin> MatchEquiJoin(const PlanPtr& plan) const {
    const SelectNode* select = As<SelectNode>(plan);
    if (select == nullptr || select->predicate()->IsFalseLiteral()) {
      return std::nullopt;
    }
    const ProductNode* product = As<ProductNode>(select->input());
    if (product == nullptr) return std::nullopt;
    JoinSplit split =
        SplitJoinPredicate(select->predicate(),
                           product->left()->schema().num_columns(), options_);
    if (split.left_keys.empty()) return std::nullopt;
    return EquiJoin{product, std::move(split)};
  }

  /// π onto `node`'s columns. Stacked π_All compose into one column
  /// list; over an equi-join the join emits those columns itself, so
  /// π_All-over-join is one operator (in the π's profile slot) and
  /// π DISTINCT-over-join a duplicate elimination over it.
  Result<OperatorPtr> LowerProject(const ProjectNode& node) {
    std::vector<size_t> columns = node.columns();
    PlanPtr input = node.input();
    for (const ProjectNode* inner = As<ProjectNode>(input);
         inner != nullptr && inner->mode() == DuplicateMode::kAll;
         inner = As<ProjectNode>(input)) {
      for (size_t& c : columns) c = inner->columns()[c];
      input = inner->input();
    }
    std::optional<EquiJoin> join;
    if (!columns.empty()) join = MatchEquiJoin(input);
    if (join.has_value() && node.mode() == DuplicateMode::kAll) {
      return LowerEquiJoin(std::move(*join), std::move(columns));
    }
    OperatorPtr projected;
    if (join.has_value()) {
      UNIQOPT_ASSIGN_OR_RETURN(projected, Profiled([&] {
        return LowerEquiJoin(std::move(*join), std::move(columns));
      }));
    } else {
      UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(input));
      projected.reset(new ProjectOp(std::move(child), std::move(columns)));
    }
    if (node.mode() == DuplicateMode::kAll) return projected;
    if (options_.distinct == PhysicalOptions::DistinctStrategy::kSort) {
      return OperatorPtr(new SortDistinctOp(std::move(projected)));
    }
    return OperatorPtr(new HashDistinctOp(std::move(projected)));
  }

  /// A selection that is no equi-join (see MatchEquiJoin). Over a
  /// Product it becomes a nested-loop join: single-side conjuncts are
  /// pushed below (when enabled), the rest filters the product.
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
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr left,
        LowerJoinInput(product->left(), std::move(split.left_only)));
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr right,
        LowerJoinInput(product->right(), std::move(split.right_only)));
    OperatorPtr join(
        new NestedLoopProductOp(std::move(left), std::move(right)));
    if (split.residual.empty()) return join;
    return OperatorPtr(new FilterOp(std::move(join),
                                    Expr::MakeAnd(std::move(split.residual))));
  }

  /// An equi-join emitting `columns` of left ⊕ right (empty: all).
  Result<OperatorPtr> LowerEquiJoin(EquiJoin join,
                                    std::vector<size_t> columns) {
    const ProductNode& product = *join.product;
    JoinSplit& split = join.split;
    ExprPtr res = split.residual.empty()
                      ? nullptr
                      : Expr::MakeAnd(std::move(split.residual));
    // When the build side is a bare Get and the build-side equi-columns
    // are exactly a declared key, the committed unique index already IS
    // the hash table: probe it and skip the build phase entirely.
    const GetNode* right_get = As<GetNode>(product.right());
    if (options_.use_indexes && right_get != nullptr) {
      std::optional<IndexJoinMatch> match = MatchUniqueIndexJoin(
          right_get->table(), split.left_keys, split.right_keys);
      if (match.has_value()) {
        UNIQOPT_ASSIGN_OR_RETURN(const Table* right_table,
                                 db_.GetTable(right_get->table().name()));
        UNIQOPT_ASSIGN_OR_RETURN(
            OperatorPtr left,
            LowerJoinInput(product.left(), std::move(split.left_only)));
        ExprPtr right_filter =
            split.right_only.empty()
                ? nullptr
                : Expr::MakeAnd(std::move(split.right_only));
        return OperatorPtr(new UniqueIndexJoinOp(
            std::move(left), right_table, right_get->schema(),
            match->key_index, std::move(match->left_keys),
            std::move(right_filter), std::move(res),
            KeyDisplayName(right_get->table(), match->key_index),
            std::move(columns)));
      }
    }
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr left,
        LowerJoinInput(product.left(), std::move(split.left_only)));
    UNIQOPT_ASSIGN_OR_RETURN(
        OperatorPtr right,
        LowerJoinInput(product.right(), std::move(split.right_only)));
    return OperatorPtr(new HashJoinOp(
        std::move(left), std::move(right), std::move(split.left_keys),
        std::move(split.right_keys), std::move(res), std::move(columns)));
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
  int depth_ = 0;
};

}  // namespace

Result<OperatorPtr> CreatePhysicalPlan(const PlanPtr& plan,
                                       const Database& db,
                                       const PhysicalOptions& options,
                                       ExecProfile* profile) {
  Lowering lowering(db, options, profile);
  return lowering.Lower(plan);
}

Result<std::vector<Row>> ExecutePlan(const PlanPtr& plan, const Database& db,
                                     ExecContext* ctx,
                                     const PhysicalOptions& options,
                                     ExecProfile* profile) {
  ctx->batch_size = options.batch_size;
  UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr root,
                           CreatePhysicalPlan(plan, db, options, profile));
  return ExecuteToVector(root.get(), ctx);
}

}  // namespace uniqopt
