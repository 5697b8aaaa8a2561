#include "rewrite/rewriter.h"

#include <map>
#include <numeric>

#include "analysis/implication.h"
#include "analysis/near_miss.h"
#include "analysis/properties.h"
#include "analysis/subquery.h"
#include "analysis/uniqueness.h"
#include "expr/equality.h"
#include "expr/normalize.h"
#include "obs/metrics.h"

namespace uniqopt {

const char* RewriteRuleIdToString(RewriteRuleId id) {
  switch (id) {
    case RewriteRuleId::kRemoveRedundantDistinct:
      return "RemoveRedundantDistinct";
    case RewriteRuleId::kSubqueryToJoin:
      return "SubqueryToJoin";
    case RewriteRuleId::kSubqueryToDistinctJoin:
      return "SubqueryToDistinctJoin";
    case RewriteRuleId::kIntersectToExists:
      return "IntersectToExists";
    case RewriteRuleId::kIntersectAllToExists:
      return "IntersectAllToExists";
    case RewriteRuleId::kExceptToNotExists:
      return "ExceptToNotExists";
    case RewriteRuleId::kJoinToSubquery:
      return "JoinToSubquery";
    case RewriteRuleId::kJoinElimination:
      return "JoinElimination";
    case RewriteRuleId::kRemoveImpliedPredicate:
      return "RemoveImpliedPredicate";
    case RewriteRuleId::kDetectEmptyResult:
      return "DetectEmptyResult";
    case RewriteRuleId::kEliminateGroupByOnKey:
      return "EliminateGroupByOnKey";
    case RewriteRuleId::kExistsToIntersect:
      return "ExistsToIntersect";
  }
  return "?";
}

ExprPtr MakeNullSafeCorrelation(const Schema& left, const Schema& right) {
  std::vector<ExprPtr> conjuncts;
  for (size_t i = 0; i < left.num_columns(); ++i) {
    const Column& lc = left.column(i);
    const Column& rc = right.column(i);
    ExprPtr l =
        Expr::ColumnRef(i, lc.QualifiedName(), lc.type, lc.nullable);
    ExprPtr r = Expr::ColumnRef(left.num_columns() + i, rc.QualifiedName(),
                                rc.type, rc.nullable);
    ExprPtr eq = Expr::Compare(CompareOp::kEq, l, r);
    if (!lc.nullable && !rc.nullable) {
      // Footnote 1: a NOT NULL column needs no IS NULL test.
      conjuncts.push_back(std::move(eq));
      continue;
    }
    ExprPtr both_null =
        Expr::MakeAnd({Expr::IsNull(l), Expr::IsNull(r)});
    conjuncts.push_back(Expr::MakeOr({std::move(both_null), std::move(eq)}));
  }
  return Expr::MakeAnd(std::move(conjuncts));
}

namespace {

/// Bound on rule applications at one node (cycle guard).
constexpr int kMaxIterationsPerNode = 8;

class Rewriter {
 public:
  Rewriter(const RewriteOptions& options, const PlanNode* root,
           const UniquenessVerdict* root_verdict)
      : options_(options), root_(root), root_verdict_(root_verdict) {}

  Result<PlanPtr> Transform(const PlanPtr& node) {
    UNIQOPT_ASSIGN_OR_RETURN(PlanPtr current, TransformChildren(node));
    for (int i = 0; i < kMaxIterationsPerNode; ++i) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, ApplyRulesAt(current));
      if (next == current) break;
      current = std::move(next);
    }
    return current;
  }

  std::vector<AppliedRewrite> TakeApplied() { return std::move(applied_); }
  std::vector<obs::NearMiss> TakeNearMisses() {
    return std::move(near_misses_);
  }

 private:
  bool CollectingNearMisses() const {
    return options_.analysis.collect_near_misses;
  }

  void Harvest(std::vector<obs::NearMiss> misses) {
    for (obs::NearMiss& miss : misses) {
      near_misses_.push_back(std::move(miss));
    }
  }
  Result<PlanPtr> TransformChildren(const PlanPtr& node) {
    switch (node->kind()) {
      case PlanKind::kGet:
        return node;
      case PlanKind::kSelect: {
        const SelectNode& n = *As<SelectNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr input, Transform(n.input()));
        if (input == n.input()) return node;
        return SelectNode::Make(std::move(input), n.predicate());
      }
      case PlanKind::kProject: {
        const ProjectNode& n = *As<ProjectNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr input, Transform(n.input()));
        if (input == n.input()) return node;
        return ProjectNode::Make(std::move(input), n.mode(), n.columns(),
                                 &n.schema());
      }
      case PlanKind::kProduct: {
        const ProductNode& n = *As<ProductNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr left, Transform(n.left()));
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr right, Transform(n.right()));
        if (left == n.left() && right == n.right()) return node;
        return ProductNode::Make(std::move(left), std::move(right));
      }
      case PlanKind::kExists: {
        const ExistsNode& n = *As<ExistsNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr outer, Transform(n.outer()));
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr sub, Transform(n.sub()));
        if (outer == n.outer() && sub == n.sub()) return node;
        return ExistsNode::Make(std::move(outer), std::move(sub),
                                n.correlation(), n.negated());
      }
      case PlanKind::kSetOp: {
        const SetOpNode& n = *As<SetOpNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr left, Transform(n.left()));
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr right, Transform(n.right()));
        if (left == n.left() && right == n.right()) return node;
        return SetOpNode::Make(n.op(), n.mode(), std::move(left),
                               std::move(right));
      }
      case PlanKind::kAggregate: {
        const AggregateNode& n = *As<AggregateNode>(node);
        UNIQOPT_ASSIGN_OR_RETURN(PlanPtr input, Transform(n.input()));
        if (input == n.input()) return node;
        return AggregateNode::Make(std::move(input), n.group_columns(),
                                   n.aggregates());
      }
    }
    return Status::Internal("unhandled plan kind in rewriter");
  }

  Result<PlanPtr> ApplyRulesAt(const PlanPtr& node) {
    // Set-op rewrites run before DISTINCT removal so that Theorem 3 /
    // Corollary 2 get credited on ∩_Dist nodes (removal would first turn
    // them into ∩_All, which Corollary 2 then converts anyway).
    if (options_.intersect_to_exists || options_.intersect_all_to_exists ||
        options_.except_to_not_exists) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TrySetOpToExists(node));
      if (next != node) return next;
    }
    if (options_.remove_redundant_distinct) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TryRemoveDistinct(node));
      if (next != node) return next;
    }
    if (options_.subquery_to_join || options_.subquery_to_distinct_join) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TrySubqueryToJoin(node));
      if (next != node) return next;
    }
    if (options_.join_elimination) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TryJoinElimination(node));
      if (next != node) return next;
    }
    if (options_.join_to_subquery) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TryJoinToSubquery(node));
      if (next != node) return next;
    }
    if (options_.semantic_predicates) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TrySemanticPredicates(node));
      if (next != node) return next;
    }
    if (options_.group_by_elimination) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TryEliminateGroupBy(node));
      if (next != node) return next;
    }
    if (options_.exists_to_intersect) {
      UNIQOPT_ASSIGN_OR_RETURN(PlanPtr next, TryExistsToIntersect(node));
      if (next != node) return next;
    }
    return node;
  }

  // Per-rule registry counters: rewrite.rule.<RuleName>.considered is
  // bumped when a rule's structural precondition matched and the gating
  // analysis ran, .fired when it transformed the plan, .rejected when the
  // uniqueness condition (or another semantic gate) failed.
  static obs::Counter& RuleCounter(RewriteRuleId rule, const char* outcome) {
    return obs::MetricsRegistry::Global().GetCounter(
        std::string("rewrite.rule.") + RewriteRuleIdToString(rule) + "." +
        outcome);
  }
  static void Considered(RewriteRuleId rule) {
    RuleCounter(rule, "considered").Increment();
  }
  static void Rejected(RewriteRuleId rule) {
    RuleCounter(rule, "rejected").Increment();
  }

  void Record(RewriteRuleId rule, std::string description,
              RewriteEvidence evidence) {
    RuleCounter(rule, "fired").Increment();
    evidence.condition_proven = true;
    applied_.push_back({rule, std::move(description), std::move(evidence)});
  }

  // §5.1: π_Dist → π_All; ∩/−_Dist → ∩/−_All.
  Result<PlanPtr> TryRemoveDistinct(const PlanPtr& node) {
    if (const ProjectNode* p = As<ProjectNode>(node);
        p != nullptr && p->mode() == DuplicateMode::kDist) {
      Considered(RewriteRuleId::kRemoveRedundantDistinct);
      // The caller's verdict answers this gate for the unrewritten root.
      UniquenessVerdict fresh;
      const UniquenessVerdict* verdict = root_verdict_;
      if (node.get() != root_ || verdict == nullptr) {
        fresh = AnalyzeDistinct(node, options_.analysis);
        verdict = &fresh;
      }
      if (verdict->distinct_unnecessary) {
        PlanPtr after = ProjectNode::Make(p->input(), DuplicateMode::kAll,
                                          p->columns(), &p->schema());
        RewriteEvidence evidence;
        evidence.before = node;
        evidence.after = after;
        evidence.proof = verdict->proof;
        evidence.facts = verdict->trace;
        Record(RewriteRuleId::kRemoveRedundantDistinct,
               "DISTINCT removed (uniqueness condition holds)",
               std::move(evidence));
        return after;
      }
      Rejected(RewriteRuleId::kRemoveRedundantDistinct);
      if (CollectingNearMisses()) Harvest(verdict->near_misses);
      return node;
    }
    if (const SetOpNode* s = As<SetOpNode>(node);
        s != nullptr && s->mode() == DuplicateMode::kDist) {
      Considered(RewriteRuleId::kRemoveRedundantDistinct);
      DerivedProperties left = DeriveProperties(s->left(), options_.analysis);
      DerivedProperties right =
          DeriveProperties(s->right(), options_.analysis);
      bool equivalent =
          s->op() == SetOpAlgebra::kIntersect
              ? (left.IsDuplicateFree() || right.IsDuplicateFree())
              : left.IsDuplicateFree();
      if (equivalent) {
        Result<PlanPtr> after = SetOpNode::Make(s->op(), DuplicateMode::kAll,
                                                s->left(), s->right());
        if (!after.ok()) return after;
        RewriteEvidence evidence;
        evidence.before = node;
        evidence.after = *after;
        evidence.facts = {"left operand: " + left.ToString(),
                          "right operand: " + right.ToString()};
        Record(RewriteRuleId::kRemoveRedundantDistinct,
               "set-op DISTINCT ≡ ALL (operand duplicate-free)",
               std::move(evidence));
        return *after;
      }
      Rejected(RewriteRuleId::kRemoveRedundantDistinct);
      if (CollectingNearMisses()) {
        Harvest(CollectSpecNearMisses(s->left(), "theorem3.setop",
                                      options_.analysis));
        Harvest(CollectSpecNearMisses(s->right(), "theorem3.setop",
                                      options_.analysis));
      }
    }
    return node;
  }

  // §5.2: π_d[A](Exists(outer, inner)) → π_d'[A](σ[corr](outer × inner)).
  Result<PlanPtr> TrySubqueryToJoin(const PlanPtr& node) {
    const ProjectNode* project = As<ProjectNode>(node);
    if (project == nullptr) return node;
    const ExistsNode* exists = As<ExistsNode>(project->input());
    if (exists == nullptr || exists->negated()) return node;

    auto rebuild_as_join = [&](DuplicateMode mode) -> PlanPtr {
      PlanPtr product = ProductNode::Make(exists->outer(), exists->sub());
      PlanPtr select = SelectNode::Make(product, exists->correlation());
      return ProjectNode::Make(std::move(select), mode, project->columns(),
                               &project->schema());
    };

    // Theorem 2: at most one inner match ⇒ plain join, mode preserved.
    if (options_.subquery_to_join) {
      Considered(RewriteRuleId::kSubqueryToJoin);
      Result<SubqueryVerdict> verdict =
          TestSubqueryAtMostOneMatch(*exists, options_.analysis);
      if (verdict.ok() && verdict->at_most_one_match) {
        PlanPtr after = rebuild_as_join(project->mode());
        RewriteEvidence evidence;
        evidence.before = node;  // full π(EXISTS) subtree, matching `after`
        evidence.after = after;
        evidence.proof = std::move(verdict->proof);
        Record(RewriteRuleId::kSubqueryToJoin,
               "EXISTS converted to join (Theorem 2: inner key bound)",
               std::move(evidence));
        return after;
      }
      Rejected(RewriteRuleId::kSubqueryToJoin);
      if (verdict.ok() && CollectingNearMisses()) {
        Harvest(std::move(verdict->near_misses));
      }
    }
    // Already-DISTINCT projection: the Dist/Dist equivalence noted after
    // Theorem 2 always allows the conversion.
    if (options_.subquery_to_distinct_join &&
        project->mode() == DuplicateMode::kDist) {
      Considered(RewriteRuleId::kSubqueryToDistinctJoin);
      PlanPtr after = rebuild_as_join(DuplicateMode::kDist);
      RewriteEvidence evidence;
      evidence.before = node;
      evidence.after = after;
      evidence.facts = {
          "projection is DISTINCT: the Dist/Dist equivalence after "
          "Theorem 2 holds unconditionally"};
      Record(RewriteRuleId::kSubqueryToDistinctJoin,
             "EXISTS under π_Dist converted to join", std::move(evidence));
      return after;
    }
    // Corollary 1: outer block duplicate-free ⇒ DISTINCT join.
    if (options_.subquery_to_distinct_join &&
        project->mode() == DuplicateMode::kAll) {
      Considered(RewriteRuleId::kSubqueryToDistinctJoin);
      PlanPtr outer_projection = ProjectNode::Make(
          exists->outer(), DuplicateMode::kAll, project->columns());
      DerivedProperties outer =
          DeriveProperties(outer_projection, options_.analysis);
      if (outer.IsDuplicateFree()) {
        PlanPtr after = rebuild_as_join(DuplicateMode::kDist);
        RewriteEvidence evidence;
        evidence.before = node;
        evidence.after = after;
        evidence.facts = {"outer projection duplicate-free (Corollary 1): " +
                          outer.ToString()};
        Record(RewriteRuleId::kSubqueryToDistinctJoin,
               "EXISTS converted to DISTINCT join (Corollary 1: outer "
               "duplicate-free)",
               std::move(evidence));
        return after;
      }
      Rejected(RewriteRuleId::kSubqueryToDistinctJoin);
      if (CollectingNearMisses()) {
        Harvest(CollectSpecNearMisses(outer_projection, "corollary1.outer",
                                      options_.analysis));
      }
    }
    return node;
  }

  // §5.3: set operations → existential subqueries.
  Result<PlanPtr> TrySetOpToExists(const PlanPtr& node) {
    const SetOpNode* setop = As<SetOpNode>(node);
    if (setop == nullptr) return node;
    DerivedProperties left = DeriveProperties(setop->left(), options_.analysis);
    DerivedProperties right =
        DeriveProperties(setop->right(), options_.analysis);

    if (setop->op() == SetOpAlgebra::kIntersect) {
      bool enabled = setop->mode() == DuplicateMode::kDist
                         ? options_.intersect_to_exists
                         : options_.intersect_all_to_exists;
      if (!enabled) return node;
      RewriteRuleId rule = setop->mode() == DuplicateMode::kDist
                               ? RewriteRuleId::kIntersectToExists
                               : RewriteRuleId::kIntersectAllToExists;
      Considered(rule);
      const char* what = setop->mode() == DuplicateMode::kDist
                             ? "INTERSECT (Theorem 3)"
                             : "INTERSECT ALL (Corollary 2)";
      if (left.IsDuplicateFree()) {
        ExprPtr corr = MakeNullSafeCorrelation(setop->left()->schema(),
                                               setop->right()->schema());
        PlanPtr after = ExistsNode::Make(setop->left(), setop->right(),
                                         std::move(corr), /*negated=*/false);
        RewriteEvidence evidence;
        evidence.before = node;
        evidence.after = after;
        evidence.facts = {"left operand duplicate-free (Theorem 3): " +
                          left.ToString()};
        Record(rule,
               std::string(what) + " converted to EXISTS (left operand "
                                   "duplicate-free)",
               std::move(evidence));
        return after;
      }
      if (right.IsDuplicateFree()) {
        ExprPtr corr = MakeNullSafeCorrelation(setop->right()->schema(),
                                               setop->left()->schema());
        // The EXISTS emits the right operand's rows; an identity
        // projection gives them the first operand's column names.
        std::vector<size_t> identity(setop->schema().num_columns());
        std::iota(identity.begin(), identity.end(), 0);
        PlanPtr after = ProjectNode::Make(
            ExistsNode::Make(setop->right(), setop->left(), std::move(corr),
                             /*negated=*/false),
            DuplicateMode::kAll, std::move(identity), &setop->schema());
        RewriteEvidence evidence;
        evidence.before = node;
        evidence.after = after;
        evidence.facts = {"right operand duplicate-free (Theorem 3): " +
                          right.ToString()};
        Record(rule,
               std::string(what) + " converted to EXISTS (right operand "
                                   "duplicate-free; operands swapped)",
               std::move(evidence));
        return after;
      }
      Rejected(rule);
      if (CollectingNearMisses()) {
        Harvest(CollectSpecNearMisses(setop->left(), "theorem3.setop",
                                      options_.analysis));
        Harvest(CollectSpecNearMisses(setop->right(), "theorem3.setop",
                                      options_.analysis));
      }
      return node;
    }

    // EXCEPT [ALL] → NOT EXISTS when the left operand is duplicate-free.
    if (!options_.except_to_not_exists) return node;
    Considered(RewriteRuleId::kExceptToNotExists);
    if (left.IsDuplicateFree()) {
      ExprPtr corr = MakeNullSafeCorrelation(setop->left()->schema(),
                                             setop->right()->schema());
      PlanPtr after = ExistsNode::Make(setop->left(), setop->right(),
                                       std::move(corr), /*negated=*/true);
      RewriteEvidence evidence;
      evidence.before = node;
      evidence.after = after;
      evidence.facts = {"left operand duplicate-free: " + left.ToString()};
      Record(RewriteRuleId::kExceptToNotExists,
             "EXCEPT converted to NOT EXISTS (left operand duplicate-free)",
             std::move(evidence));
      return after;
    }
    Rejected(RewriteRuleId::kExceptToNotExists);
    return node;
  }

  // §5.3 converse: Exists(L, R, null-safe column equality) → L ∩ R when
  // L is duplicate-free (then ∩_Dist ≡ the EXISTS filter exactly).
  Result<PlanPtr> TryExistsToIntersect(const PlanPtr& node) {
    const ExistsNode* exists = As<ExistsNode>(node);
    if (exists == nullptr || exists->negated()) return node;
    const Schema& left = exists->outer()->schema();
    const Schema& right = exists->sub()->schema();
    if (!left.UnionCompatible(right)) return node;
    // The correlation must be exactly the null-safe tuple equality.
    ExprPtr expected = MakeNullSafeCorrelation(left, right);
    if (!exists->correlation()->Equals(*expected)) return node;
    Considered(RewriteRuleId::kExistsToIntersect);
    DerivedProperties outer =
        DeriveProperties(exists->outer(), options_.analysis);
    if (!outer.IsDuplicateFree()) {
      Rejected(RewriteRuleId::kExistsToIntersect);
      return node;
    }
    Result<PlanPtr> setop =
        SetOpNode::Make(SetOpAlgebra::kIntersect, DuplicateMode::kDist,
                        exists->outer(), exists->sub());
    if (!setop.ok()) return node;
    RewriteEvidence evidence;
    evidence.before = node;
    evidence.after = *setop;
    evidence.facts = {"outer block duplicate-free: " + outer.ToString(),
                      "correlation is the exact null-safe tuple equality"};
    Record(RewriteRuleId::kExistsToIntersect,
           "null-safe EXISTS converted to INTERSECT (outer "
           "duplicate-free)",
           std::move(evidence));
    return *setop;
  }

  // GROUP BY extension: an aggregation whose group columns cover a
  // derived key of the input has exactly one row per group; SUM/MIN/MAX
  // of a single row equal the row's value, so the whole node collapses
  // into a projection. (COUNT and AVG change value or type and are
  // excluded.)
  Result<PlanPtr> TryEliminateGroupBy(const PlanPtr& node) {
    const AggregateNode* agg = As<AggregateNode>(node);
    if (agg == nullptr || agg->group_columns().empty()) return node;
    for (const AggregateItem& item : agg->aggregates()) {
      if (item.func != AggFunc::kSum && item.func != AggFunc::kMin &&
          item.func != AggFunc::kMax) {
        return node;
      }
    }
    Considered(RewriteRuleId::kEliminateGroupByOnKey);
    DerivedProperties props =
        DeriveProperties(agg->input(), options_.analysis);
    AttributeSet group_set =
        AttributeSet::FromVector(agg->group_columns());
    AttributeSet closure = props.fds.Closure(group_set);
    bool covers_key = false;
    for (const AttributeSet& key : props.keys) {
      covers_key = covers_key || key.IsSubsetOf(closure);
    }
    if (!covers_key) {
      Rejected(RewriteRuleId::kEliminateGroupByOnKey);
      if (CollectingNearMisses()) {
        Result<SpecShape> shape = ExtractProductShape(agg->input());
        if (shape.ok()) {
          Harvest(CollectShapeNearMisses(*shape, group_set, "groupby.on_key",
                                         options_.analysis));
        }
      }
      return node;
    }
    std::vector<size_t> columns = agg->group_columns();
    for (const AggregateItem& item : agg->aggregates()) {
      columns.push_back(item.arg_column);
    }
    PlanPtr after = ProjectNode::Make(agg->input(), DuplicateMode::kAll,
                                      std::move(columns), &agg->schema());
    RewriteEvidence evidence;
    evidence.before = node;
    evidence.after = after;
    evidence.facts = {"group-column closure " + closure.ToString() +
                      " covers a derived key of the input: " +
                      props.ToString()};
    Record(RewriteRuleId::kEliminateGroupByOnKey,
           "GROUP BY on a key: single-row groups, aggregation replaced "
           "by projection",
           std::move(evidence));
    return after;
  }

  // §7 extension: simplify the conjuncts of a selection against the
  // CHECK constraints of the base tables below it ("true-interpreted
  // predicate" transformations). Implied conjuncts on NOT NULL columns
  // are dropped; a contradicted conjunct collapses the selection to
  // FALSE (the executor then skips the input entirely).
  Result<PlanPtr> TrySemanticPredicates(const PlanPtr& node) {
    const SelectNode* select = As<SelectNode>(node);
    if (select == nullptr) return node;
    if (select->predicate()->IsFalseLiteral()) return node;  // already done
    Result<SpecShape> shape_result = ExtractProductShape(select->input());
    if (!shape_result.ok()) return node;
    Considered(RewriteRuleId::kRemoveImpliedPredicate);
    const SpecShape& shape = *shape_result;
    const Schema& schema = select->input()->schema();

    // Locate the owning base table of a product column.
    auto owner = [&](size_t col) -> const SpecShape::BaseTable* {
      for (const SpecShape::BaseTable& bt : shape.tables) {
        size_t w = bt.get->schema().num_columns();
        if (col >= bt.offset && col < bt.offset + w) return &bt;
      }
      return nullptr;
    };
    // Per-table domain cache.
    std::map<const TableDef*, ColumnDomains> domains;
    auto domain_of = [&](const SpecShape::BaseTable& bt,
                         size_t ordinal) -> const ValueDomain& {
      const TableDef* def = &bt.get->table();
      auto it = domains.find(def);
      if (it == domains.end()) {
        it = domains.emplace(def, ColumnDomains::FromTable(*def)).first;
      }
      return it->second.domain(ordinal);
    };

    bool changed = false;
    bool contradiction = false;
    std::vector<ExprPtr> kept;
    for (const ExprPtr& conj : FlattenAnd(select->predicate())) {
      AtomVerdict verdict = AtomVerdict::kUnknown;
      bool column_not_null = false;
      size_t col = 0;
      CompareOp op = CompareOp::kEq;
      Value constant;
      std::vector<Value> in_list;
      if (MatchColumnConstant(conj, &col, &op, &constant)) {
        const SpecShape::BaseTable* bt = owner(col);
        if (bt != nullptr) {
          verdict = TestAtomAgainstDomain(domain_of(*bt, col - bt->offset),
                                          op, constant);
          column_not_null = !schema.column(col).nullable;
        }
      } else if (MatchColumnInList(conj, &col, &in_list)) {
        const SpecShape::BaseTable* bt = owner(col);
        if (bt != nullptr) {
          const ValueDomain& d = domain_of(*bt, col - bt->offset);
          // Contradicted iff every listed value is impossible; implied
          // iff the (finite) domain is a subset of the list.
          bool all_contradicted = !in_list.empty();
          for (const Value& v : in_list) {
            all_contradicted =
                all_contradicted &&
                TestAtomAgainstDomain(d, CompareOp::kEq, v) ==
                    AtomVerdict::kContradicted;
          }
          bool implied = d.values.has_value();
          if (implied) {
            for (const Value& dv : *d.values) {
              bool in = false;
              for (const Value& v : in_list) in = in || dv.Compare(v) == 0;
              implied = implied && in;
            }
          }
          if (all_contradicted) {
            verdict = AtomVerdict::kContradicted;
          } else if (implied) {
            verdict = AtomVerdict::kImpliedForNonNull;
          }
          column_not_null = !schema.column(col).nullable;
        }
      } else if (conj->kind() == ExprKind::kIsNotNull &&
                 conj->child(0)->kind() == ExprKind::kColumnRef &&
                 !schema.column(conj->child(0)->column_index()).nullable) {
        // IS NOT NULL on a NOT NULL column is a tautology.
        verdict = AtomVerdict::kImpliedForNonNull;
        column_not_null = true;
      } else if (conj->kind() == ExprKind::kIsNull &&
                 conj->child(0)->kind() == ExprKind::kColumnRef &&
                 !schema.column(conj->child(0)->column_index()).nullable) {
        verdict = AtomVerdict::kContradicted;
      }

      if (verdict == AtomVerdict::kContradicted) {
        contradiction = true;
        break;
      }
      if (verdict == AtomVerdict::kImpliedForNonNull && column_not_null) {
        // Sound to drop: the conjunct is TRUE for every row that can
        // exist (CHECK holds; the column cannot be NULL).
        changed = true;
        continue;
      }
      if (verdict == AtomVerdict::kImpliedForNonNull && !column_not_null &&
          CollectingNearMisses()) {
        // CHECK implies the conjunct for every non-NULL value; only the
        // column's nullability keeps it in the plan.
        const SpecShape::BaseTable* bt = owner(col);
        if (bt != nullptr) {
          std::string cname =
              bt->get->table().schema().column(col - bt->offset).name;
          obs::NearMiss miss;
          miss.goal = "check.implied_predicate";
          miss.table = bt->get->table().name();
          miss.alias = bt->get->alias();
          miss.kind = obs::MissingFactKind::kNotNull;
          miss.fact = "NOT NULL (" + cname + ")";
          miss.replay_key_columns = {cname};
          miss.bound_columns = "(" + cname + ")";
          near_misses_.push_back(std::move(miss));
        }
      }
      kept.push_back(conj);
    }
    if (contradiction) {
      PlanPtr after = SelectNode::Make(select->input(), FalseLiteral());
      RewriteEvidence evidence;
      evidence.before = node;
      evidence.after = after;
      evidence.facts = {
          "a WHERE conjunct is contradicted by a CHECK constraint; no row "
          "can satisfy the selection"};
      Record(RewriteRuleId::kDetectEmptyResult,
             "WHERE conjunct contradicts a CHECK constraint: result is "
             "empty",
             std::move(evidence));
      return after;
    }
    if (!changed) {
      Rejected(RewriteRuleId::kRemoveImpliedPredicate);
      return node;
    }
    PlanPtr after = kept.empty()
                        ? select->input()
                        : SelectNode::Make(select->input(),
                                           Expr::MakeAnd(std::move(kept)));
    RewriteEvidence evidence;
    evidence.before = node;
    evidence.after = after;
    evidence.facts = {
        "dropped conjunct(s) are implied by CHECK constraints on NOT NULL "
        "columns (true for every storable row)"};
    Record(RewriteRuleId::kRemoveImpliedPredicate,
           "dropped WHERE conjunct(s) implied by CHECK constraints",
           std::move(evidence));
    return after;
  }

  // §7 extension: drop a table joined only through a declared foreign
  // key. Preconditions checked below guarantee every surviving row
  // matched the eliminated table exactly once, so ALL semantics are
  // preserved.
  Result<PlanPtr> TryJoinElimination(const PlanPtr& node) {
    const ProjectNode* project = As<ProjectNode>(node);
    if (project == nullptr) return node;
    Result<SpecShape> shape_result = ExtractSpecShape(node);
    if (!shape_result.ok()) return node;
    const SpecShape& shape = *shape_result;
    if (shape.tables.size() < 2) return node;
    // Existential filters hold column references into the product
    // schema; eliminating a table would invalidate them. Be
    // conservative.
    if (!shape.exists_filters.empty()) return node;

    Considered(RewriteRuleId::kJoinElimination);
    for (size_t victim_idx = 0; victim_idx < shape.tables.size();
         ++victim_idx) {
      const SpecShape::BaseTable& victim = shape.tables[victim_idx];
      size_t begin = victim.offset;
      size_t end = begin + victim.get->schema().num_columns();
      auto in_victim = [&](size_t col) { return col >= begin && col < end; };

      // 1. Projection must not use the victim.
      bool projected = false;
      for (size_t col : project->columns()) projected |= in_victim(col);
      if (projected) continue;

      // 2. Every predicate touching the victim must be an equality
      //    between a victim column and an outside column.
      std::vector<std::pair<size_t, size_t>> pairs;  // (outside, inside)
      bool disqualified = false;
      for (const ExprPtr& pred : shape.predicates) {
        std::vector<size_t> cols;
        pred->CollectColumns(&cols);
        bool touches = false;
        for (size_t c : cols) touches |= in_victim(c);
        if (!touches) continue;
        EqualityAtom atom = ClassifyAtom(pred);
        if (atom.type != AtomType::kType2ColumnColumn) {
          disqualified = true;
          break;
        }
        size_t inside;
        size_t outside;
        if (in_victim(atom.column) && !in_victim(atom.other_column)) {
          inside = atom.column;
          outside = atom.other_column;
        } else if (in_victim(atom.other_column) && !in_victim(atom.column)) {
          inside = atom.other_column;
          outside = atom.column;
        } else {
          disqualified = true;  // victim-internal or unexpected shape
          break;
        }
        pairs.emplace_back(outside, inside - begin);
      }
      if (disqualified || pairs.empty()) continue;

      // 3. Some declared foreign key from another FROM table must cover
      //    the victim's joined columns; `representative[i]` then holds,
      //    for each joined victim ordinal i, the product column whose
      //    value provably equals the victim column (the FK source).
      std::map<size_t, size_t> representative;
      if (!MatchesForeignKey(shape, victim, pairs, &representative)) {
        continue;
      }
      return EliminateTable(node, *project, shape, victim_idx, pairs,
                            representative);
    }
    Rejected(RewriteRuleId::kJoinElimination);
    return node;
  }

  /// Searches for a foreign key (B → victim) such that:
  ///  - B is another FROM table and every FK column of B is NOT NULL
  ///    (a NULL row would be dropped by the join but kept afterwards);
  ///  - every joined victim column (`pairs[*].second`) is one of the
  ///    FK's referenced key columns (equalities on non-key victim
  ///    columns cannot be reproduced after elimination);
  ///  - every referenced key column is actually joined (otherwise the
  ///    victim could match more than one row).
  /// On success fills `representative`: victim ordinal → product column
  /// of the FK source providing the same value.
  static bool MatchesForeignKey(
      const SpecShape& shape, const SpecShape::BaseTable& victim,
      const std::vector<std::pair<size_t, size_t>>& pairs,
      std::map<size_t, size_t>* representative) {
    const TableDef& victim_def = victim.get->table();
    for (const SpecShape::BaseTable& source : shape.tables) {
      if (&source == &victim) continue;
      const TableDef& source_def = source.get->table();
      size_t src_begin = source.offset;
      for (const ForeignKeyConstraint& fk : source_def.foreign_keys()) {
        if (fk.ref_table != victim_def.name()) continue;
        Result<ResolvedForeignKey> resolved =
            ResolveForeignKey(fk, victim_def);
        bool ok = resolved.ok();
        for (size_t c : fk.columns) {
          ok = ok && !source_def.schema().column(c).nullable;
        }
        if (!ok) continue;
        const std::vector<size_t>& ref_ordinals = resolved->ref_ordinals;

        std::map<size_t, size_t> reps;
        for (size_t j = 0; j < ref_ordinals.size(); ++j) {
          reps[ref_ordinals[j]] = src_begin + fk.columns[j];
        }
        // Every pair's victim column must be a referenced key column.
        bool pairs_ok = true;
        for (const auto& [outside, inside] : pairs) {
          (void)outside;
          pairs_ok = pairs_ok && reps.count(inside) > 0;
        }
        if (!pairs_ok) continue;
        // The FK's own equalities must all be present in the query:
        // only then is the guaranteed FK target row the row the join
        // actually matched, making any *additional* pair equivalent to
        // the derived predicate `outside = fk_source_column`.
        bool fk_join_present = true;
        for (size_t j = 0; j < ref_ordinals.size() && fk_join_present;
             ++j) {
          bool found = false;
          for (const auto& [outside, inside] : pairs) {
            found = found || (inside == ref_ordinals[j] &&
                              outside == src_begin + fk.columns[j]);
          }
          fk_join_present = found;
        }
        if (!fk_join_present) continue;
        *representative = std::move(reps);
        return true;
      }
    }
    return false;
  }

  Result<PlanPtr> EliminateTable(
      const PlanPtr& node, const ProjectNode& project, const SpecShape& shape,
      size_t victim_idx, const std::vector<std::pair<size_t, size_t>>& pairs,
      const std::map<size_t, size_t>& representative) {
    const SpecShape::BaseTable& victim = shape.tables[victim_idx];
    size_t begin = victim.offset;
    size_t width = victim.get->schema().num_columns();
    size_t end = begin + width;

    // Old→new column mapping over the shrunken product.
    std::vector<size_t> mapping(shape.width, 0);
    for (size_t i = 0; i < shape.width; ++i) {
      mapping[i] = i < begin ? i : (i >= end ? i - width : 0);
    }

    // Rebuild the product of surviving tables (original order).
    PlanPtr plan;
    for (size_t i = 0; i < shape.tables.size(); ++i) {
      if (i == victim_idx) continue;
      PlanPtr get = GetNode::Make(&shape.tables[i].get->table(),
                                  shape.tables[i].get->alias());
      plan = plan == nullptr ? get : ProductNode::Make(plan, get);
    }
    // Surviving predicates, remapped.
    std::vector<ExprPtr> predicates;
    for (const ExprPtr& pred : shape.predicates) {
      std::vector<size_t> cols;
      pred->CollectColumns(&cols);
      bool touches = false;
      for (size_t c : cols) touches |= (c >= begin && c < end);
      if (touches) continue;  // the FK equalities vanish with the table
      predicates.push_back(RemapColumns(pred, mapping));
    }
    // Derived predicates: a pair (o, i) with o different from the FK
    // source column constrained the victim's key from two sides; the
    // constraint survives as o = representative(i).
    const Schema& product_schema = project.input()->schema();
    for (const auto& [outside, inside] : pairs) {
      size_t rep = representative.at(inside);
      if (rep == outside) continue;
      const Column& oc = product_schema.column(outside);
      const Column& rc = product_schema.column(rep);
      ExprPtr derived = Expr::Compare(
          CompareOp::kEq,
          Expr::ColumnRef(mapping[outside], oc.QualifiedName(), oc.type,
                          oc.nullable),
          Expr::ColumnRef(mapping[rep], rc.QualifiedName(), rc.type,
                          rc.nullable));
      predicates.push_back(std::move(derived));
    }
    if (!predicates.empty()) {
      plan = SelectNode::Make(plan, Expr::MakeAnd(std::move(predicates)));
    }
    std::vector<size_t> new_columns;
    for (size_t col : project.columns()) new_columns.push_back(mapping[col]);
    PlanPtr after = ProjectNode::Make(std::move(plan), project.mode(),
                                      std::move(new_columns),
                                      &project.schema());
    RewriteEvidence evidence;
    evidence.before = node;
    evidence.after = after;
    evidence.facts = {
        "NOT NULL foreign key onto a candidate key of " +
            victim.get->table().name() +
            " guarantees exactly one match per referencing row",
        "victim contributes no projection columns and no other predicates"};
    Record(RewriteRuleId::kJoinElimination,
           "eliminated join with " + victim.get->table().name() +
               " (inclusion dependency guarantees exactly one match)",
           std::move(evidence));
    return after;
  }

  // §6: π_d[A ⊆ left](σ[C](L × R)) → π_d[A](Exists(σ[C_L](L), R, rest)).
  Result<PlanPtr> TryJoinToSubquery(const PlanPtr& node) {
    const ProjectNode* project = As<ProjectNode>(node);
    if (project == nullptr) return node;
    const SelectNode* select = As<SelectNode>(project->input());
    if (select == nullptr) return node;
    const ProductNode* product = As<ProductNode>(select->input());
    if (product == nullptr) return node;
    size_t left_width = product->left()->schema().num_columns();
    for (size_t col : project->columns()) {
      if (col >= left_width) return node;  // projection must be left-only
    }
    // Partition conjuncts: left-only stay on the outer; everything else
    // becomes the correlation.
    std::vector<ExprPtr> outer_pred;
    std::vector<ExprPtr> correlation;
    for (const ExprPtr& conj : FlattenAnd(select->predicate())) {
      std::vector<size_t> cols;
      conj->CollectColumns(&cols);
      bool left_only = true;
      for (size_t c : cols) left_only = left_only && c < left_width;
      (left_only ? outer_pred : correlation).push_back(conj);
    }
    PlanPtr outer = product->left();
    if (!outer_pred.empty()) {
      outer = SelectNode::Make(outer, Expr::MakeAnd(std::move(outer_pred)));
    }
    PlanPtr exists =
        ExistsNode::Make(outer, product->right(),
                         Expr::MakeAnd(std::move(correlation)),
                         /*negated=*/false);
    // Valid unconditionally for π_Dist; for π_All the discarded side must
    // match at most once (Theorem 2 read right-to-left).
    Considered(RewriteRuleId::kJoinToSubquery);
    if (project->mode() == DuplicateMode::kAll) {
      Result<SubqueryVerdict> verdict = TestSubqueryAtMostOneMatch(
          *As<ExistsNode>(exists), options_.analysis);
      if (!verdict.ok() || !verdict->at_most_one_match) {
        Rejected(RewriteRuleId::kJoinToSubquery);
        return node;
      }
      PlanPtr after = ProjectNode::Make(exists, project->mode(),
                                        project->columns(),
                                        &project->schema());
      RewriteEvidence evidence;
      evidence.before = node;
      evidence.after = after;  // full π(EXISTS) subtree, matching `before`
      evidence.proof = std::move(verdict->proof);
      Record(RewriteRuleId::kJoinToSubquery,
             "join converted to EXISTS (Theorem 2: discarded side unique)",
             std::move(evidence));
      return after;
    }
    PlanPtr after = ProjectNode::Make(exists, project->mode(),
                                      project->columns(), &project->schema());
    RewriteEvidence evidence;
    evidence.before = node;
    evidence.after = after;
    evidence.facts = {
        "projection is DISTINCT: the join-to-EXISTS direction of the "
        "Dist/Dist equivalence holds unconditionally"};
    Record(RewriteRuleId::kJoinToSubquery,
           "DISTINCT join converted to EXISTS", std::move(evidence));
    return after;
  }

  const RewriteOptions& options_;
  const PlanNode* root_;
  const UniquenessVerdict* root_verdict_;
  std::vector<AppliedRewrite> applied_;
  std::vector<obs::NearMiss> near_misses_;
};

}  // namespace

Result<RewriteResult> RewritePlan(const PlanPtr& plan,
                                  const RewriteOptions& options,
                                  const UniquenessVerdict* plan_verdict) {
  obs::MetricsRegistry::Global().GetCounter("rewrite.plans").Increment();
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("rewrite.plan.ns");
  obs::ScopedLatencyTimer timer(&latency);
  Rewriter rewriter(options, plan.get(), plan_verdict);
  RewriteResult result;
  UNIQOPT_ASSIGN_OR_RETURN(result.plan, rewriter.Transform(plan));
  result.applied = rewriter.TakeApplied();
  result.near_misses = rewriter.TakeNearMisses();
  return result;
}

}  // namespace uniqopt
