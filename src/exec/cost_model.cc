#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "exec/index_exec.h"
#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

/// Hash/equality for single values under `=!`.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.NullSafeEquals(b);
  }
};

double Log2(double x) { return x <= 2 ? 1.0 : std::log2(x); }

/// A unique-index point lookup touches one hash bucket: constant cost
/// regardless of table size. This is what makes keyed point queries —
/// and keyed join inputs — prefer the probe over every scan-based
/// alternative. None unless the planner would lower σ[conjuncts](input)
/// to an IndexLookupOp.
std::optional<PlanEstimate> KeyedInputEstimate(
    const PlanPtr& input, std::vector<ExprPtr> conjuncts,
    const PhysicalOptions& options) {
  const GetNode* get = As<GetNode>(input);
  if (!options.use_indexes || get == nullptr || conjuncts.empty() ||
      !MatchIndexLookup(get->table(), Expr::MakeAnd(std::move(conjuncts)))
           .has_value()) {
    return std::nullopt;
  }
  return PlanEstimate{1, 2};
}

}  // namespace

double CostEstimator::DistinctCount(const std::string& table,
                                    size_t column) const {
  auto key = std::make_pair(table, column);
  {
    std::lock_guard<std::mutex> lock(ndv_mu_);
    auto it = ndv_cache_.find(key);
    if (it != ndv_cache_.end()) return it->second;
  }
  // Compute outside the lock: the scan is the expensive part, and a
  // duplicate computation by a racing thread yields the same value.
  double ndv = 1;
  auto t = db_->GetTable(table);
  if (t.ok()) {
    // Scan a pinned snapshot: concurrent DML commits must not move the
    // row storage under this read.
    TableSnapshot snapshot = (*t)->Snapshot();
    std::unordered_set<Value, ValueHash, ValueEq> values;
    for (const Row& row : snapshot->rows) values.insert(row[column]);
    ndv = std::max<size_t>(1, values.size());
  }
  std::lock_guard<std::mutex> lock(ndv_mu_);
  ndv_cache_.emplace(key, ndv);
  return ndv;
}

double CostEstimator::ColumnDistinct(const PlanPtr& plan,
                                     size_t column) const {
  switch (plan->kind()) {
    case PlanKind::kGet:
      return DistinctCount(As<GetNode>(plan)->table().name(), column);
    case PlanKind::kSelect:
    case PlanKind::kExists:
      // Filtering can only reduce distinct counts; keep the upper bound.
      return ColumnDistinct(plan->child(0), column);
    case PlanKind::kProject: {
      const ProjectNode* p = As<ProjectNode>(plan);
      return ColumnDistinct(p->input(), p->columns()[column]);
    }
    case PlanKind::kProduct: {
      const ProductNode* p = As<ProductNode>(plan);
      size_t left_width = p->left()->schema().num_columns();
      return column < left_width
                 ? ColumnDistinct(p->left(), column)
                 : ColumnDistinct(p->right(), column - left_width);
    }
    case PlanKind::kSetOp:
      return ColumnDistinct(As<SetOpNode>(plan)->left(), column);
    case PlanKind::kAggregate: {
      const AggregateNode* agg = As<AggregateNode>(plan);
      if (column < agg->group_columns().size()) {
        return ColumnDistinct(agg->input(), agg->group_columns()[column]);
      }
      return EstimateRows(plan);
    }
  }
  return EstimateRows(plan);
}

double CostEstimator::AtomSelectivity(const ExprPtr& atom,
                                      const PlanPtr& input) const {
  EqualityAtom eq = ClassifyAtom(atom);
  switch (eq.type) {
    case AtomType::kType1ColumnConstant:
      return 1.0 / ColumnDistinct(input, eq.column);
    case AtomType::kType2ColumnColumn: {
      double d = std::max(ColumnDistinct(input, eq.column),
                          ColumnDistinct(input, eq.other_column));
      return 1.0 / std::max(1.0, d);
    }
    case AtomType::kOther:
      break;
  }
  switch (atom->kind()) {
    case ExprKind::kComparison:
      return 1.0 / 3;  // range heuristic
    case ExprKind::kIsNull:
      return 0.1;
    case ExprKind::kIsNotNull:
      return 0.9;
    case ExprKind::kOr: {
      double s = 0;
      for (const ExprPtr& d : atom->children()) {
        s += AtomSelectivity(d, input);
      }
      return std::min(1.0, s);
    }
    case ExprKind::kNot:
      return 1.0 - AtomSelectivity(atom->child(0), input);
    case ExprKind::kLiteral:
      if (atom->IsFalseLiteral()) return 0.0;
      return 1.0;
    default:
      return 0.5;
  }
}

double CostEstimator::Selectivity(const ExprPtr& predicate,
                                  const PlanPtr& input) const {
  double s = 1.0;
  for (const ExprPtr& conj : FlattenAnd(predicate)) {
    s *= AtomSelectivity(conj, input);
  }
  return std::clamp(s, 0.0, 1.0);
}

double CostEstimator::EstimateRows(const PlanPtr& plan) const {
  PhysicalOptions defaults;
  return Estimate(plan, defaults).rows;
}

PlanEstimate CostEstimator::Estimate(const PlanPtr& plan,
                                     const PhysicalOptions& options) const {
  switch (plan->kind()) {
    case PlanKind::kGet: {
      PlanEstimate e;
      auto t = db_->GetTable(As<GetNode>(plan)->table().name());
      e.rows = t.ok() ? static_cast<double>((*t)->size()) : 1000;
      e.cost = e.rows;  // full scan
      return e;
    }
    case PlanKind::kSelect: {
      const SelectNode* node = As<SelectNode>(plan);
      if (node->predicate()->IsFalseLiteral()) {
        return PlanEstimate{0, 0};  // EmptySourceOp: input never opened
      }
      // Mirror the planner: a Select over a Product is a join.
      const ProductNode* product = As<ProductNode>(node->input());
      if (product != nullptr) {
        PlanEstimate left = Estimate(product->left(), options);
        PlanEstimate right = Estimate(product->right(), options);
        double sel = Selectivity(node->predicate(), node->input());
        PlanEstimate e;
        e.rows = std::max(1.0, left.rows * right.rows * sel);
        JoinSplit split = SplitJoinPredicate(
            node->predicate(), product->left()->schema().num_columns(),
            options);
        // Mirror the planner: a keyed input whose pushed-down conjuncts
        // cover a declared key is one index probe.
        const PlanEstimate left_in =
            KeyedInputEstimate(product->left(), split.left_only, options)
                .value_or(left);
        // A bare keyed Get on the build side is probed through its
        // unique index — the build phase (and the build-side scan)
        // disappears.
        const GetNode* right_get = As<GetNode>(product->right());
        if (!split.left_keys.empty() && options.use_indexes &&
            right_get != nullptr &&
            MatchUniqueIndexJoin(right_get->table(), split.left_keys,
                                 split.right_keys)
                .has_value()) {
          e.cost = left_in.cost + left_in.rows + e.rows;
          return e;
        }
        const PlanEstimate right_in =
            KeyedInputEstimate(product->right(), split.right_only, options)
                .value_or(right);
        e.cost = left_in.cost + right_in.cost;
        e.cost += split.left_keys.empty()
                      ? left_in.rows * right_in.rows
                      : left_in.rows + right_in.rows + e.rows;
        return e;
      }
      if (std::optional<PlanEstimate> probe = KeyedInputEstimate(
              node->input(), FlattenAnd(node->predicate()), options)) {
        return *probe;
      }
      PlanEstimate in = Estimate(node->input(), options);
      PlanEstimate e;
      e.rows = std::max(1.0, in.rows * Selectivity(node->predicate(),
                                                   node->input()));
      // Predicate evaluation is paid per conjunct per row — this is what
      // makes the RemoveImpliedPredicate rewrite visibly cheaper.
      double conjuncts =
          static_cast<double>(FlattenAnd(node->predicate()).size());
      e.cost = in.cost + in.rows * 0.1 * std::max(1.0, conjuncts);
      return e;
    }
    case PlanKind::kProject: {
      const ProjectNode* node = As<ProjectNode>(plan);
      PlanEstimate in = Estimate(node->input(), options);
      PlanEstimate e;
      if (node->mode() == DuplicateMode::kAll) {
        e.rows = in.rows;
        e.cost = in.cost + in.rows * 0.1;
        return e;
      }
      // Distinct output bounded by the product of column NDVs.
      double distinct = 1;
      for (size_t col : node->columns()) {
        distinct *= ColumnDistinct(node->input(), col);
        if (distinct > in.rows) break;
      }
      e.rows = std::min(in.rows, distinct);
      double dedup =
          options.distinct == PhysicalOptions::DistinctStrategy::kSort
              ? in.rows * Log2(in.rows) * 0.5
              : in.rows;
      e.cost = in.cost + in.rows * 0.1 + dedup;
      return e;
    }
    case PlanKind::kProduct: {
      const ProductNode* node = As<ProductNode>(plan);
      PlanEstimate left = Estimate(node->left(), options);
      PlanEstimate right = Estimate(node->right(), options);
      PlanEstimate e;
      e.rows = left.rows * right.rows;
      e.cost = left.cost + right.cost + e.rows;
      return e;
    }
    case PlanKind::kExists: {
      const ExistsNode* node = As<ExistsNode>(plan);
      PlanEstimate outer = Estimate(node->outer(), options);
      PlanEstimate inner = Estimate(node->sub(), options);
      PlanEstimate e;
      e.rows = std::max(1.0, outer.rows * (node->negated() ? 0.25 : 0.75));
      bool has_equi = false;
      size_t outer_width = node->outer()->schema().num_columns();
      for (const ExprPtr& conj : FlattenAnd(node->correlation())) {
        EqualityAtom a = ClassifyAtom(conj);
        if (a.type == AtomType::kType2ColumnColumn &&
            ((a.column < outer_width) != (a.other_column < outer_width))) {
          has_equi = true;
        }
      }
      if (options.join == PhysicalOptions::JoinStrategy::kHash && has_equi) {
        e.cost = outer.cost + inner.cost + inner.rows + outer.rows;
      } else {
        // Nested loops; EXISTS stops at the first witness (halved).
        e.cost = outer.cost + inner.cost + outer.rows * inner.rows * 0.5;
      }
      return e;
    }
    case PlanKind::kSetOp: {
      const SetOpNode* node = As<SetOpNode>(plan);
      PlanEstimate left = Estimate(node->left(), options);
      PlanEstimate right = Estimate(node->right(), options);
      PlanEstimate e;
      e.rows = node->op() == SetOpAlgebra::kIntersect
                   ? std::min(left.rows, right.rows) * 0.5
                   : left.rows * 0.5;
      if (options.sort_merge_intersect &&
          node->op() == SetOpAlgebra::kIntersect &&
          node->mode() == DuplicateMode::kDist) {
        e.cost = left.cost + right.cost + left.rows * Log2(left.rows) * 0.5 +
                 right.rows * Log2(right.rows) * 0.5;
      } else {
        e.cost = left.cost + right.cost + left.rows + right.rows;
      }
      return e;
    }
    case PlanKind::kAggregate: {
      const AggregateNode* node = As<AggregateNode>(plan);
      PlanEstimate in = Estimate(node->input(), options);
      PlanEstimate e;
      double groups = 1;
      for (size_t col : node->group_columns()) {
        groups *= ColumnDistinct(node->input(), col);
        if (groups > in.rows) break;
      }
      e.rows = node->group_columns().empty()
                   ? 1
                   : std::max(1.0, std::min(in.rows, groups));
      e.cost = in.cost + in.rows + e.rows;
      return e;
    }
  }
  return PlanEstimate{1, 1};
}

size_t ChooseBestAlternative(const CostEstimator& estimator,
                             std::vector<PlanAlternative>* alternatives) {
  size_t best = 0;
  for (size_t i = 0; i < alternatives->size(); ++i) {
    PlanAlternative& alt = (*alternatives)[i];
    alt.estimate = estimator.Estimate(alt.plan, alt.physical);
    if (alt.estimate.cost < (*alternatives)[best].estimate.cost) best = i;
  }
  return best;
}

std::vector<PlanAlternative> StandardAlternatives(const PlanPtr& original,
                                                  const PlanPtr& rewritten) {
  std::vector<PlanAlternative> out;
  auto add = [&](const PlanPtr& plan, const char* which) {
    PhysicalOptions hash;
    hash.join = PhysicalOptions::JoinStrategy::kHash;
    hash.distinct = PhysicalOptions::DistinctStrategy::kHash;
    out.push_back({plan, hash, std::string(which) + "/hash", {}});
    PhysicalOptions sort;
    sort.join = PhysicalOptions::JoinStrategy::kHash;
    sort.distinct = PhysicalOptions::DistinctStrategy::kSort;
    out.push_back({plan, sort, std::string(which) + "/sort-distinct", {}});
    PhysicalOptions nl;
    nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
    out.push_back({plan, nl, std::string(which) + "/nested-loop", {}});
    if (plan->kind() == PlanKind::kSetOp) {
      PhysicalOptions merge = hash;
      merge.sort_merge_intersect = true;
      out.push_back({plan, merge, std::string(which) + "/sort-merge", {}});
    }
  };
  add(original, "original");
  if (rewritten != original) add(rewritten, "rewritten");
  return out;
}

}  // namespace uniqopt
