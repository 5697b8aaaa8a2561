#include "analysis/near_miss.h"

#include <limits>

#include "analysis/algorithm1.h"
#include "common/string_util.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

std::vector<std::string> LocalColumnNames(const TableDef& table,
                                          const AttributeSet& local) {
  std::vector<std::string> names;
  for (size_t ordinal : local.ToVector()) {
    names.push_back(table.schema().column(ordinal).name);
  }
  return names;
}

}  // namespace

void ComputeTableNearMiss(const std::string& goal, const TableDef& table,
                          const std::string& alias, size_t shift,
                          const AttributeSet& bound,
                          const AttributeSet& goal_columns,
                          const AnalysisOptions& options,
                          std::vector<obs::NearMiss>* out) {
  const size_t arity = table.schema().num_columns();
  AttributeSet table_cols = AttributeSet::AllUpTo(arity).Shifted(shift);
  AttributeSet b_local;  // bound ∩ cols(T), re-based to table ordinals
  AttributeSet g_local;  // goal_columns ∩ cols(T), re-based likewise
  for (size_t pos : bound.Intersect(table_cols).ToVector()) {
    b_local.Add(pos - shift);
  }
  for (size_t pos : goal_columns.Intersect(table_cols).ToVector()) {
    g_local.Add(pos - shift);
  }
  // No bound column reaches this table: the proof did not get close, and
  // any suggested key would be over an empty column set. Not a near-miss.
  if (b_local.Empty()) return;

  obs::NearMiss best;
  size_t best_cost = std::numeric_limits<size_t>::max();

  // Candidate 1: declare the goal columns themselves (projection /
  // grouping columns of this table) a candidate key; fall back to the
  // full bound set when no goal column touches the table (Theorem 2
  // inner tables, where the seed is the outer schema).
  const AttributeSet& unique_cols = g_local.Empty() ? b_local : g_local;
  {
    std::vector<std::string> names = LocalColumnNames(table, unique_cols);
    obs::NearMiss miss;
    miss.goal = goal;
    miss.table = table.name();
    miss.alias = alias;
    miss.kind = obs::MissingFactKind::kUniqueKey;
    miss.fact = "UNIQUE (" + Join(names, ", ") + ")";
    miss.replay_key_columns = std::move(names);
    best = std::move(miss);
    best_cost = unique_cols.Count();
  }

  // Candidate 2: for each declared key K not covered by B, the FD
  // B -> K\B completes the coverage. Cheaper when the key is nearly
  // bound already. Replay actualizes the FD as UNIQUE over the
  // determinant B (no FD DDL exists; a key over B is strictly stronger).
  for (const KeyConstraint& key : table.keys()) {
    if (key.kind == KeyKind::kUnique && !options.use_unique_keys) continue;
    AttributeSet key_set = AttributeSet::FromVector(key.columns);
    AttributeSet missing = key_set.Difference(b_local);
    if (missing.Empty()) continue;  // key already covered
    if (missing.Count() < best_cost) {
      std::vector<std::string> determinant =
          LocalColumnNames(table, b_local);
      obs::NearMiss miss;
      miss.goal = goal;
      miss.table = table.name();
      miss.alias = alias;
      miss.kind = obs::MissingFactKind::kFunctionalDependency;
      miss.fact = "FD (" + Join(determinant, ", ") + ") -> (" +
                  Join(LocalColumnNames(table, missing), ", ") + ")";
      miss.replay_key_columns = std::move(determinant);
      best = std::move(miss);
      best_cost = missing.Count();
    }
  }

  best.bound_columns =
      "(" + Join(LocalColumnNames(table, b_local), ", ") + ")";
  out->push_back(std::move(best));
}

std::vector<obs::NearMiss> CollectShapeNearMisses(
    const SpecShape& shape, const AttributeSet& initially_bound,
    const std::string& goal, const AnalysisOptions& options) {
  std::vector<obs::NearMiss> out;
  std::vector<ExprPtr> conjuncts;
  for (const ExprPtr& pred : shape.predicates) {
    Result<ExprPtr> cnf = ToCnf(pred);
    if (!cnf.ok()) continue;  // over-budget conjunct contributes nothing
    for (const ExprPtr& c : FlattenAnd(*cnf)) conjuncts.push_back(c);
  }
  AttributeSet bound =
      BoundColumnClosure(conjuncts, initially_bound, options, nullptr);
  for (const SpecShape::BaseTable& bt : shape.tables) {
    const TableDef& table = bt.get->table();
    if (!KeyCovered(table, bt.get->alias(), bt.offset, bound, options,
                    nullptr)) {
      ComputeTableNearMiss(goal, table, bt.get->alias(), bt.offset, bound,
                           initially_bound, options, &out);
    }
  }
  return out;
}

std::vector<obs::NearMiss> CollectSpecNearMisses(
    const PlanPtr& plan, const std::string& goal,
    const AnalysisOptions& options) {
  Result<SpecShape> shape = ExtractSpecShape(plan);
  if (!shape.ok()) return {};
  return CollectShapeNearMisses(
      *shape, AttributeSet::FromVector(shape->project->columns()), goal,
      options);
}

}  // namespace uniqopt
