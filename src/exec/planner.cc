#include "exec/planner.h"

#include <optional>
#include <variant>

#include "exec/index_exec.h"
#include "exec/operators.h"
#include "expr/predicate_program.h"
#include "obs/metrics.h"

namespace uniqopt {

/// One decided operator: which operator to build and what it borrows.
/// A PhysicalPlan keeps its nodes in preorder: a node's first input
/// follows it, its second starts at `second_input`.
struct PhysicalPlan::Node {
  enum class Op : uint8_t {
    kTableScan,
    kEmptySource,
    kFilter,
    kIndexLookup,
    kProject,
    kSortDistinct,
    kHashDistinct,
    kProduct,
    kHashJoin,
    kUniqueIndexJoin,
    kHashSemiJoin,
    kNestedLoopSemiJoin,
    kSetOp,
    kSortMergeIntersect,
    kHashAggregate,
  };
  /// kFilter's predicate and its program, compiled for the batch path.
  struct Filter {
    ExprPtr predicate;
    PredicateProgram program;
  };
  /// The equi-join keys and residual of kHashJoin and kHashSemiJoin, and
  /// kHashJoin's output columns (empty: all).
  struct HashJoin {
    std::vector<size_t> left_keys;
    std::vector<size_t> right_keys;
    ExprPtr residual;
    std::vector<size_t> columns;
  };

  Op op = Op::kTableScan;
  /// Opens an EXPLAIN ANALYZE profile slot: every plan node does, and so
  /// does a join input under pushed-down conjuncts.
  bool profiled = false;
  uint8_t num_inputs = 0;
  uint32_t second_input = 0;
  /// The plan node this operator implements. Its schema is the
  /// operator's output schema, and set-op, semi-join and aggregate
  /// operators read their parameters from it.
  const PlanNode* plan = nullptr;
  /// What else the operator reads, by `op`: its table (kTableScan), a
  /// Filter, its columns (kProject), a HashJoin (kHashJoin and
  /// kHashSemiJoin) or its index spec.
  std::variant<std::monostate, const Table*, Filter, std::vector<size_t>,
               std::unique_ptr<const HashJoin>,
               std::unique_ptr<const IndexLookupSpec>,
               std::unique_ptr<const IndexJoinSpec>>
      part;
};

namespace {

using Node = PhysicalPlan::Node;
using Op = Node::Op;

ExprPtr AndOrNull(std::vector<ExprPtr> conjuncts) {
  return conjuncts.empty() ? nullptr : Expr::MakeAnd(std::move(conjuncts));
}

/// The deciding step of PhysicalPlan: appends the decided operators to
/// `nodes` in preorder, each before its inputs.
class Decider {
 public:
  Decider(const Database& db, const PhysicalOptions& options,
          std::vector<Node>* nodes)
      : db_(db), options_(options), nodes_(*nodes) {}

  /// Decides one plan node, which opens a profile slot.
  Status Decide(const PlanPtr& plan) {
    const size_t root = nodes_.size();
    UNIQOPT_RETURN_NOT_OK(DecideNode(plan));
    nodes_[root].profiled = true;
    return Status::OK();
  }

 private:
  /// Appends a node whose `num_inputs` inputs are appended next, the
  /// second after SecondInput; returns its index.
  size_t Append(Op op, const PlanNode* plan, uint8_t num_inputs) {
    Node& node = nodes_.emplace_back();
    node.op = op;
    node.plan = plan;
    node.num_inputs = num_inputs;
    return nodes_.size() - 1;
  }

  /// Marks where node `i`'s second input starts: the next append.
  void SecondInput(size_t i) {
    nodes_[i].second_input = static_cast<uint32_t>(nodes_.size());
  }

  /// σ[predicate] over the input appended next, with the predicate
  /// compiled for the batch path.
  size_t AppendFilter(const PlanNode* plan, ExprPtr predicate) {
    size_t i = Append(Op::kFilter, plan, 1);
    PredicateProgram program = PredicateProgram::Compile(predicate);
    nodes_[i].part = Node::Filter{std::move(predicate), std::move(program)};
    return i;
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

  Result<size_t> DecideIndexLookup(const GetNode& get,
                                   IndexLookupMatch match) {
    UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                             db_.GetTable(get.table().name()));
    auto spec = std::make_unique<IndexLookupSpec>();
    spec->table = table;
    spec->schema = &get.schema();
    spec->key_index = match.key_index;
    spec->probes = std::move(match.probes);
    spec->residual = AndOrNull(std::move(match.residual));
    spec->key_name = KeyDisplayName(get.table(), match.key_index);
    size_t i = Append(Op::kIndexLookup, &get, 0);
    nodes_[i].part = std::unique_ptr<const IndexLookupSpec>(std::move(spec));
    return i;
  }

  /// A join input under its pushed-down single-side conjuncts, shown as
  /// its own operator like σ-over-Get: a keyed input probes its index,
  /// any other is filtered by the conjuncts.
  Status DecideJoinInput(const PlanPtr& input,
                         std::vector<ExprPtr> conjuncts) {
    if (conjuncts.empty()) return Decide(input);
    ExprPtr predicate = Expr::MakeAnd(std::move(conjuncts));
    size_t i = 0;
    if (std::optional<IndexLookupMatch> match =
            MatchKeyedInput(input, predicate)) {
      UNIQOPT_ASSIGN_OR_RETURN(
          i, DecideIndexLookup(*As<GetNode>(input), std::move(*match)));
    } else {
      i = AppendFilter(input.get(), predicate);
      UNIQOPT_RETURN_NOT_OK(Decide(input));
    }
    nodes_[i].profiled = true;
    return Status::OK();
  }

  Status DecideNode(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kGet: {
        UNIQOPT_ASSIGN_OR_RETURN(
            const Table* table,
            db_.GetTable(As<GetNode>(plan)->table().name()));
        nodes_[Append(Op::kTableScan, plan.get(), 0)].part = table;
        return Status::OK();
      }
      case PlanKind::kSelect:
        if (std::optional<EquiJoin> join = MatchEquiJoin(plan)) {
          return DecideEquiJoin(std::move(*join), plan.get(), {});
        }
        return DecideSelect(*As<SelectNode>(plan));
      case PlanKind::kProject:
        return DecideProject(*As<ProjectNode>(plan));
      case PlanKind::kProduct: {
        const ProductNode& node = *As<ProductNode>(plan);
        size_t i = Append(Op::kProduct, &node, 2);
        UNIQOPT_RETURN_NOT_OK(Decide(node.left()));
        SecondInput(i);
        return Decide(node.right());
      }
      case PlanKind::kExists:
        return DecideExists(*As<ExistsNode>(plan));
      case PlanKind::kSetOp:
        return DecideSetOp(*As<SetOpNode>(plan));
      case PlanKind::kAggregate: {
        const AggregateNode& node = *As<AggregateNode>(plan);
        Append(Op::kHashAggregate, &node, 1);
        return Decide(node.input());
      }
    }
    return Status::Internal("unhandled plan kind in lowering");
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
  Status DecideProject(const ProjectNode& node) {
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
    if (node.mode() == DuplicateMode::kDist) {
      Append(options_.distinct == PhysicalOptions::DistinctStrategy::kSort
                 ? Op::kSortDistinct
                 : Op::kHashDistinct,
             &node, 1);
    }
    if (join.has_value()) {
      const size_t i = nodes_.size();
      UNIQOPT_RETURN_NOT_OK(
          DecideEquiJoin(std::move(*join), &node, std::move(columns)));
      // Under a duplicate elimination the join is a slot of its own.
      if (node.mode() == DuplicateMode::kDist) nodes_[i].profiled = true;
      return Status::OK();
    }
    nodes_[Append(Op::kProject, &node, 1)].part = std::move(columns);
    return Decide(input);
  }

  /// A selection that is no equi-join (see MatchEquiJoin). Over a
  /// Product it becomes a nested-loop join: single-side conjuncts are
  /// pushed below (when enabled), the rest filters the product.
  Status DecideSelect(const SelectNode& node) {
    // A constant-FALSE selection produces nothing; skip the input.
    if (node.predicate()->IsFalseLiteral()) {
      Append(Op::kEmptySource, &node, 0);
      return Status::OK();
    }
    const ProductNode* product = As<ProductNode>(node.input());
    if (product == nullptr) {
      if (std::optional<IndexLookupMatch> match =
              MatchKeyedInput(node.input(), node.predicate())) {
        return DecideIndexLookup(*As<GetNode>(node.input()),
                                 std::move(*match))
            .status();
      }
      AppendFilter(&node, node.predicate());
      return Decide(node.input());
    }
    JoinSplit split = SplitJoinPredicate(
        node.predicate(), product->left()->schema().num_columns(), options_);
    if (!split.residual.empty()) {
      AppendFilter(&node, Expr::MakeAnd(std::move(split.residual)));
    }
    size_t i = Append(Op::kProduct, product, 2);
    UNIQOPT_RETURN_NOT_OK(
        DecideJoinInput(product->left(), std::move(split.left_only)));
    SecondInput(i);
    return DecideJoinInput(product->right(), std::move(split.right_only));
  }

  /// An equi-join emitting `columns` of left ⊕ right (empty: all), the
  /// schema of `output`.
  Status DecideEquiJoin(EquiJoin join, const PlanNode* output,
                        std::vector<size_t> columns) {
    const ProductNode& product = *join.product;
    JoinSplit& split = join.split;
    ExprPtr res = AndOrNull(std::move(split.residual));
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
        const TableDef& def = right_table->def();
        std::vector<TypeId> key_types;
        for (size_t col : def.keys().at(match->key_index).columns) {
          key_types.push_back(def.schema().column(col).type);
        }
        size_t i = Append(Op::kUniqueIndexJoin, output, 1);
        nodes_[i].part = std::make_unique<const IndexJoinSpec>(IndexJoinSpec{
            right_table, &output->schema(), match->key_index,
            std::move(match->left_keys), std::move(key_types),
            AndOrNull(std::move(split.right_only)), std::move(res),
            KeyDisplayName(right_get->table(), match->key_index),
            JoinProjection(product.left()->schema().num_columns(),
                           right_get->schema().num_columns(),
                           std::move(columns))});
        return DecideJoinInput(product.left(), std::move(split.left_only));
      }
    }
    size_t i = Append(Op::kHashJoin, output, 2);
    nodes_[i].part = std::make_unique<const Node::HashJoin>(
        Node::HashJoin{std::move(split.left_keys), std::move(split.right_keys),
                       std::move(res), std::move(columns)});
    UNIQOPT_RETURN_NOT_OK(
        DecideJoinInput(product.left(), std::move(split.left_only)));
    SecondInput(i);
    return DecideJoinInput(product.right(), std::move(split.right_only));
  }

  Status DecideExists(const ExistsNode& node) {
    size_t outer_width = node.outer()->schema().num_columns();
    size_t i = 0;
    // Every correlation conjunct that is not an equi-pair stays in the
    // semi-join's residual.
    PhysicalOptions no_pushdown = options_;
    no_pushdown.predicate_pushdown = false;
    JoinSplit split =
        SplitJoinPredicate(node.correlation(), outer_width, no_pushdown);
    if (options_.join == PhysicalOptions::JoinStrategy::kHash &&
        !split.left_keys.empty()) {
      i = Append(Op::kHashSemiJoin, &node, 2);
      nodes_[i].part = std::make_unique<const Node::HashJoin>(Node::HashJoin{
          std::move(split.left_keys), std::move(split.right_keys),
          AndOrNull(std::move(split.residual)), {}});
    } else {
      i = Append(Op::kNestedLoopSemiJoin, &node, 2);
    }
    UNIQOPT_RETURN_NOT_OK(Decide(node.outer()));
    SecondInput(i);
    return Decide(node.sub());
  }

  Status DecideSetOp(const SetOpNode& node) {
    const bool sort_merge = options_.sort_merge_intersect &&
                            node.op() == SetOpAlgebra::kIntersect &&
                            node.mode() == DuplicateMode::kDist;
    size_t i =
        Append(sort_merge ? Op::kSortMergeIntersect : Op::kSetOp, &node, 2);
    UNIQOPT_RETURN_NOT_OK(Decide(node.left()));
    SecondInput(i);
    return Decide(node.right());
  }

  const Database& db_;
  const PhysicalOptions& options_;
  std::vector<Node>& nodes_;
};

/// The building step of PhysicalPlan: fresh operators borrowing from the
/// decided nodes.
class Builder {
 public:
  Builder(const std::vector<Node>& nodes, ExecProfile* profile)
      : nodes_(nodes), profile_(profile) {}

  /// Builds node `i`; a profiled node's slot registers before its inputs
  /// are built, so the profile lists operators in preorder.
  OperatorPtr Build(size_t i) {
    if (profile_ == nullptr || !nodes_[i].profiled) return Make(i);
    size_t slot = profile_->Reserve(depth_);
    ++depth_;
    OperatorPtr op = Make(i);
    --depth_;
    profile_->SetName(slot, op->name());
    return OperatorPtr(new ProfileOp(std::move(op), profile_, slot));
  }

 private:
  OperatorPtr Make(size_t i) {
    const Node& node = nodes_[i];
    // The first input, then the second: the order of a call's arguments
    // is unspecified.
    OperatorPtr first = node.num_inputs > 0 ? Build(i + 1) : nullptr;
    OperatorPtr second =
        node.num_inputs > 1 ? Build(node.second_input) : nullptr;
    const Schema* schema = &node.plan->schema();
    switch (node.op) {
      case Op::kTableScan:
        return OperatorPtr(
            new TableScanOp(std::get<const Table*>(node.part), schema));
      case Op::kEmptySource:
        return OperatorPtr(new EmptySourceOp(schema));
      case Op::kFilter: {
        const auto& filter = std::get<Node::Filter>(node.part);
        return OperatorPtr(new FilterOp(
            std::move(first), filter.predicate.get(), &filter.program));
      }
      case Op::kIndexLookup:
        return OperatorPtr(new IndexLookupOp(
            *std::get<std::unique_ptr<const IndexLookupSpec>>(node.part)));
      case Op::kProject:
        return OperatorPtr(new ProjectOp(
            std::move(first), &std::get<std::vector<size_t>>(node.part),
            schema));
      case Op::kSortDistinct:
        return OperatorPtr(new SortDistinctOp(std::move(first)));
      case Op::kHashDistinct:
        return OperatorPtr(new HashDistinctOp(std::move(first)));
      case Op::kProduct:
        return OperatorPtr(
            new NestedLoopProductOp(std::move(first), std::move(second), schema));
      case Op::kHashJoin: {
        const auto& join =
            *std::get<std::unique_ptr<const Node::HashJoin>>(node.part);
        return OperatorPtr(new HashJoinOp(
            std::move(first), std::move(second), join.left_keys,
            join.right_keys, join.residual, join.columns, schema));
      }
      case Op::kUniqueIndexJoin:
        return OperatorPtr(new UniqueIndexJoinOp(
            std::move(first),
            *std::get<std::unique_ptr<const IndexJoinSpec>>(node.part)));
      case Op::kHashSemiJoin: {
        const auto& join =
            *std::get<std::unique_ptr<const Node::HashJoin>>(node.part);
        return OperatorPtr(new HashSemiJoinOp(
            std::move(first), std::move(second), join.left_keys,
            join.right_keys, join.residual,
            static_cast<const ExistsNode*>(node.plan)->negated()));
      }
      case Op::kNestedLoopSemiJoin: {
        const auto* exists = static_cast<const ExistsNode*>(node.plan);
        return OperatorPtr(new NestedLoopSemiJoinOp(
            std::move(first), std::move(second), exists->correlation(),
            exists->negated()));
      }
      case Op::kSetOp: {
        const auto* set_op = static_cast<const SetOpNode*>(node.plan);
        return OperatorPtr(new SetOpOp(set_op->op(), set_op->mode(),
                                       std::move(first), std::move(second)));
      }
      case Op::kSortMergeIntersect:
        return OperatorPtr(
            new SortMergeIntersectOp(std::move(first), std::move(second)));
      case Op::kHashAggregate: {
        const auto* aggregate = static_cast<const AggregateNode*>(node.plan);
        return OperatorPtr(new HashAggregateOp(std::move(first), schema,
                                               aggregate->group_columns(),
                                               aggregate->aggregates()));
      }
    }
    return nullptr;
  }

  const std::vector<Node>& nodes_;
  ExecProfile* profile_;
  int depth_ = 0;
};

}  // namespace

PhysicalPlan::PhysicalPlan(PlanPtr plan, const PhysicalOptions& options,
                           uint64_t catalog_version, std::vector<Node> nodes)
    : plan_(std::move(plan)),
      options_(options),
      catalog_version_(catalog_version),
      nodes_(std::move(nodes)) {}

PhysicalPlan::~PhysicalPlan() = default;

Result<std::shared_ptr<const PhysicalPlan>> PhysicalPlan::Decide(
    PlanPtr plan, const Database& db, const PhysicalOptions& options,
    uint64_t catalog_version) {
  static obs::Counter& lowerings =
      obs::MetricsRegistry::Global().GetCounter("exec.lowerings");
  lowerings.Increment();
  std::vector<Node> nodes;
  UNIQOPT_RETURN_NOT_OK(Decider(db, options, &nodes).Decide(plan));
  nodes.shrink_to_fit();
  return std::shared_ptr<const PhysicalPlan>(new PhysicalPlan(
      std::move(plan), options, catalog_version, std::move(nodes)));
}

OperatorPtr PhysicalPlan::Build(ExecProfile* profile) const {
  OperatorPtr root = Builder(nodes_, profile).Build(0);
  root->set_owner(shared_from_this());
  return root;
}

size_t PhysicalPlan::ApproxBytes() const {
  // A flat allowance per node for what its part allocates: a program's
  // atoms, key and column lists, an index spec.
  return sizeof(PhysicalPlan) + nodes_.size() * (sizeof(Node) + 112);
}

Result<OperatorPtr> CreatePhysicalPlan(const PlanPtr& plan,
                                       const Database& db,
                                       const PhysicalOptions& options,
                                       ExecProfile* profile) {
  UNIQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const PhysicalPlan> decided,
      PhysicalPlan::Decide(plan, db, options, db.catalog().version()));
  return decided->Build(profile);
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
