#include "equiv/symbolic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "equiv/canonical.h"
#include "types/row.h"
#include "types/tribool.h"

namespace uniqopt {
namespace equiv {
namespace {

void CollectConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out) {
  if (predicate->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : predicate->children()) CollectConjuncts(c, out);
    return;
  }
  if (predicate->IsTrueLiteral()) return;
  out->push_back(predicate);
}

bool DecomposeInto(const PlanPtr& plan, size_t offset, SymbolicSpec* spec) {
  switch (plan->kind()) {
    case PlanKind::kGet:
      spec->tables.push_back({As<GetNode>(plan), offset});
      return true;
    case PlanKind::kSelect: {
      const auto* sel = As<SelectNode>(plan);
      if (!DecomposeInto(sel->input(), offset, spec)) return false;
      ExprPtr pred = offset == 0 ? sel->predicate()
                                 : ShiftColumns(sel->predicate(), offset);
      CollectConjuncts(pred, &spec->conjuncts);
      return true;
    }
    case PlanKind::kProduct: {
      const auto* prod = As<ProductNode>(plan);
      if (!DecomposeInto(prod->left(), offset, spec)) return false;
      return DecomposeInto(prod->right(),
                           offset + prod->left()->schema().num_columns(),
                           spec);
    }
    case PlanKind::kExists:
      // A semi/anti-join filter: its rows are a sub-multiset of the outer
      // input, which is sound for the proving direction (filters only
      // shrink) but blocks the refutation chase.
      spec->has_exists_filter = true;
      return DecomposeInto(As<ExistsNode>(plan)->outer(), offset, spec);
    case PlanKind::kProject:
    case PlanKind::kSetOp:
    case PlanKind::kAggregate:
      return false;
  }
  return false;
}

/// Distinct column indexes referenced by `e`, sorted.
std::vector<size_t> ReferencedColumns(const ExprPtr& e) {
  std::vector<size_t> cols;
  e->CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Union-find over block columns.
class Dsu {
 public:
  explicit Dsu(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Unite(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// A predicate known to reference exactly one column of its frame.
struct SinglePred {
  ExprPtr pred;
  size_t col = 0;     ///< Column index within the predicate's own frame.
  size_t width = 0;   ///< Frame width.
  bool require_true = false;  ///< σ conjunct (TRUE) vs CHECK (not FALSE).
};

Tribool EvalAt(const SinglePred& p, const Value& v) {
  std::vector<Value> cells(p.width);
  cells[p.col] = v;
  Row row(std::move(cells));
  return p.pred->EvaluatePredicate(row, /*params=*/{});
}

bool Passes(const std::vector<SinglePred>& preds, const Value& v) {
  for (const SinglePred& p : preds) {
    Tribool t = EvalAt(p, v);
    if (p.require_true ? !FalseInterpreted(t) : !TrueInterpreted(t)) {
      return false;
    }
  }
  return true;
}

void CollectLiterals(const ExprPtr& e, std::vector<Value>* out) {
  if (e->kind() == ExprKind::kLiteral) {
    if (!e->literal().is_null()) out->push_back(e->literal());
    return;
  }
  for (const ExprPtr& c : e->children()) CollectLiterals(c, out);
}

/// Test-point candidates for a column of type `t`: every constant the
/// governing predicates mention, its integer neighbours (interval
/// boundaries), and type sentinels covering the unconstrained regions.
/// Exact for single-column interval/equality predicates over integers.
std::vector<Value> Candidates(TypeId t, const std::vector<SinglePred>& a,
                              const std::vector<SinglePred>& b) {
  std::vector<Value> consts;
  for (const SinglePred& p : a) CollectLiterals(p.pred, &consts);
  for (const SinglePred& p : b) CollectLiterals(p.pred, &consts);
  std::vector<Value> out;
  switch (t) {
    case TypeId::kBoolean:
      out.push_back(Value::Boolean(false));
      out.push_back(Value::Boolean(true));
      break;
    case TypeId::kInteger: {
      std::set<int64_t> points = {0, 1, (int64_t{1} << 40)};
      // `c` and its neighbours, saturated at int64's limits.
      auto around = [&points](int64_t c) {
        points.insert(c == INT64_MIN ? c : c - 1);
        points.insert(c);
        points.insert(c == INT64_MAX ? c : c + 1);
      };
      for (const Value& v : consts) {
        if (v.type() == TypeId::kInteger) {
          around(v.AsInteger());
        } else if (v.type() == TypeId::kDouble) {
          // A double bounds the integers at its truncation; one beyond
          // int64's range bounds them at the nearer limit.
          double d = v.AsDouble();
          if (std::optional<int64_t> c = ExactInteger(std::trunc(d))) {
            around(*c);
          } else if (!std::isnan(d)) {
            around(d > 0 ? INT64_MAX : INT64_MIN);
          }
        }
      }
      for (int64_t p : points) out.push_back(Value::Integer(p));
      break;
    }
    case TypeId::kDouble: {
      std::set<double> points = {0.0, 1.0, 1e18};
      for (const Value& v : consts) {
        if (v.type() == TypeId::kDouble || v.type() == TypeId::kInteger) {
          double c = v.AsNumeric();
          points.insert(c - 1.0);
          points.insert(c);
          points.insert(c + 1.0);
        }
      }
      for (double p : points) out.push_back(Value::Double(p));
      break;
    }
    case TypeId::kString: {
      std::string fresh = "~";
      for (const Value& v : consts) {
        if (v.type() != TypeId::kString) continue;
        out.push_back(v);
        if (v.AsString().size() >= fresh.size()) {
          fresh = std::string(v.AsString()) + "~";
        }
      }
      out.push_back(Value::String(fresh));
      out.push_back(Value::String(fresh + "~"));
      break;
    }
  }
  return out;
}

/// True when every comparison in `e` is =/<> — the shapes for which the
/// fresh-value candidates cover the complement region exactly.
bool OnlyEqualityComparisons(const ExprPtr& e) {
  if (e->kind() == ExprKind::kComparison &&
      e->compare_op() != CompareOp::kEq && e->compare_op() != CompareOp::kNe) {
    return false;
  }
  for (const ExprPtr& c : e->children()) {
    if (!OnlyEqualityComparisons(c)) return false;
  }
  return true;
}

/// Integers and booleans are exact (interval boundaries are enumerable
/// test points); strings and doubles only under pure (in)equality.
bool ExactTestPoints(TypeId t, const SinglePred& pred,
                     const std::vector<SinglePred>& checks) {
  if (t == TypeId::kInteger || t == TypeId::kBoolean) return true;
  if (!OnlyEqualityComparisons(pred.pred)) return false;
  for (const SinglePred& c : checks) {
    if (!OnlyEqualityComparisons(c.pred)) return false;
  }
  return true;
}

std::vector<SinglePred> SingleColumnChecks(const TableDef& table,
                                           size_t ordinal) {
  size_t tw = table.schema().num_columns();
  std::vector<SinglePred> checks;
  for (const CheckConstraint& check : table.checks()) {
    std::vector<size_t> cols = ReferencedColumns(check.predicate);
    if (cols.size() == 1 && cols[0] == ordinal) {
      checks.push_back({check.predicate, ordinal, tw, false});
    }
  }
  return checks;
}

}  // namespace

TestPointResult CheckImpliesPredicate(const TableDef& table, size_t ordinal,
                                      const ExprPtr& pred, size_t frame_col,
                                      size_t frame_width) {
  if (pred->MaxHostVarIndexPlusOne() > 0) return TestPointResult::kUndecided;
  std::vector<SinglePred> checks = SingleColumnChecks(table, ordinal);
  if (checks.empty()) return TestPointResult::kUndecided;
  SinglePred p{pred, frame_col, frame_width, true};
  TypeId t = table.schema().column(ordinal).type;
  for (const Value& v : Candidates(t, {p}, checks)) {
    if (!Passes(checks, v)) continue;  // not storable
    if (!FalseInterpreted(EvalAt(p, v))) return TestPointResult::kFails;
  }
  return ExactTestPoints(t, p, checks) ? TestPointResult::kHolds
                                       : TestPointResult::kUndecided;
}

TestPointResult CheckExcludesPredicate(const TableDef& table, size_t ordinal,
                                       const ExprPtr& pred, size_t frame_col,
                                       size_t frame_width, bool nullable) {
  if (pred->MaxHostVarIndexPlusOne() > 0) return TestPointResult::kUndecided;
  std::vector<SinglePred> checks = SingleColumnChecks(table, ordinal);
  SinglePred p{pred, frame_col, frame_width, true};
  TypeId t = table.schema().column(ordinal).type;
  if (nullable && FalseInterpreted(EvalAt(p, Value::Null(t)))) {
    return TestPointResult::kFails;
  }
  for (const Value& v : Candidates(t, {p}, checks)) {
    if (!Passes(checks, v)) continue;
    if (FalseInterpreted(EvalAt(p, v))) return TestPointResult::kFails;
  }
  return ExactTestPoints(t, p, checks) ? TestPointResult::kHolds
                                       : TestPointResult::kUndecided;
}

bool DecomposeBlock(const PlanPtr& plan, SymbolicSpec* spec) {
  spec->width = plan->schema().num_columns();
  return DecomposeInto(plan, 0, spec);
}

bool DecomposeProjection(const PlanPtr& plan, SymbolicSpec* spec) {
  const auto* proj = As<ProjectNode>(plan);
  if (proj == nullptr) return false;
  spec->columns = proj->columns();
  spec->mode = proj->mode();
  return DecomposeBlock(proj->input(), spec);
}

std::optional<EqualityAtom> ClassifyEqualityAtom(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kComparison ||
      expr->compare_op() != CompareOp::kEq) {
    return std::nullopt;
  }
  const ExprPtr& l = expr->child(0);
  const ExprPtr& r = expr->child(1);
  auto is_value = [](const ExprPtr& e) {
    return e->kind() == ExprKind::kHostVar ||
           (e->kind() == ExprKind::kLiteral && !e->literal().is_null());
  };
  EqualityAtom atom;
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kColumnRef) {
    atom.column_pair = true;
    atom.left = l->column_index();
    atom.right = r->column_index();
    return atom;
  }
  if (l->kind() == ExprKind::kColumnRef && is_value(r)) {
    atom.left = l->column_index();
    atom.bound_value = r;
    return atom;
  }
  if (r->kind() == ExprKind::kColumnRef && is_value(l)) {
    atom.left = r->column_index();
    atom.bound_value = l;
    return atom;
  }
  return std::nullopt;
}

std::vector<char> CloseOverEqualities(const SymbolicSpec& spec,
                                      std::vector<char> bound) {
  bound.resize(spec.width, 0);
  std::vector<EqualityAtom> atoms;
  for (const ExprPtr& c : spec.conjuncts) {
    if (auto atom = ClassifyEqualityAtom(c)) atoms.push_back(*atom);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const EqualityAtom& atom : atoms) {
      if (!atom.column_pair) {
        if (!bound[atom.left]) {
          bound[atom.left] = 1;
          changed = true;
        }
        continue;
      }
      if (bound[atom.left] && !bound[atom.right]) {
        bound[atom.right] = 1;
        changed = true;
      } else if (bound[atom.right] && !bound[atom.left]) {
        bound[atom.left] = 1;
        changed = true;
      }
    }
  }
  return bound;
}

bool AllKeysCovered(const SymbolicSpec& spec, const std::vector<char>& bound,
                    size_t* first_uncovered) {
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    const SymbolicTable& t = spec.tables[ti];
    bool covered = false;
    for (const KeyConstraint& key : t.get->table().keys()) {
      bool all = true;
      for (size_t kc : key.columns) {
        if (t.offset + kc >= bound.size() || !bound[t.offset + kc]) {
          all = false;
          break;
        }
      }
      if (all) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      if (first_uncovered != nullptr) *first_uncovered = ti;
      return false;
    }
  }
  return true;
}

bool SymbolicallyDuplicateFree(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kGet:
      return As<GetNode>(plan)->table().HasAnyKey();
    case PlanKind::kSelect:
      return SymbolicallyDuplicateFree(As<SelectNode>(plan)->input());
    case PlanKind::kProject: {
      const auto* proj = As<ProjectNode>(plan);
      if (proj->mode() == DuplicateMode::kDist) return true;
      // γ_G's output is keyed by G, its first |G| columns (a γ without
      // group columns yields one row), and σ (HAVING) keeps that key.
      PlanPtr input = proj->input();
      while (input->kind() == PlanKind::kSelect) {
        input = As<SelectNode>(input)->input();
      }
      if (const auto* agg = As<AggregateNode>(input)) {
        const std::vector<size_t>& cols = proj->columns();
        for (size_t g = 0; g < agg->group_columns().size(); ++g) {
          if (std::find(cols.begin(), cols.end(), g) == cols.end()) {
            return false;
          }
        }
        return true;
      }
      SymbolicSpec spec;
      if (!DecomposeProjection(plan, &spec)) return false;
      std::vector<char> bound(spec.width, 0);
      for (size_t c : spec.columns) {
        if (c < spec.width) bound[c] = 1;
      }
      bound = CloseOverEqualities(spec, std::move(bound));
      return AllKeysCovered(spec, bound, nullptr);
    }
    case PlanKind::kProduct: {
      const auto* prod = As<ProductNode>(plan);
      return SymbolicallyDuplicateFree(prod->left()) &&
             SymbolicallyDuplicateFree(prod->right());
    }
    case PlanKind::kExists:
      // Semi/anti-join output is a sub-multiset of the outer input.
      return SymbolicallyDuplicateFree(As<ExistsNode>(plan)->outer());
    case PlanKind::kSetOp: {
      const auto* setop = As<SetOpNode>(plan);
      if (setop->mode() == DuplicateMode::kDist) return true;
      if (setop->op() == SetOpAlgebra::kIntersect) {
        // min(l, r) multiplicity is bounded by either operand.
        return SymbolicallyDuplicateFree(setop->left()) ||
               SymbolicallyDuplicateFree(setop->right());
      }
      return SymbolicallyDuplicateFree(setop->left());
    }
    case PlanKind::kAggregate:
      return true;  // Group columns are a derived key of the output.
  }
  return false;
}

std::optional<std::string> BuildDuplicateWitness(const WitnessRequest& req,
                                                 std::string* blocked_reason) {
  const SymbolicSpec& spec = *req.spec;
  const Schema& frame = *req.frame;
  auto blocked = [&](std::string why) -> std::optional<std::string> {
    if (blocked_reason != nullptr) *blocked_reason = std::move(why);
    return std::nullopt;
  };
  if (spec.has_exists_filter) {
    return blocked("an EXISTS filter restricts the block beyond the chase");
  }
  if (req.uncovered_table >= spec.tables.size()) {
    return blocked("no uncovered table to chase");
  }

  // -- Classify every conjunct: equality atoms feed the union-find,
  //    anything else must be a host-var-free single-column predicate.
  Dsu dsu(spec.width);
  std::vector<std::vector<SinglePred>> singles(spec.width);
  std::vector<std::vector<SinglePred>> checks(spec.width);
  std::vector<char> referenced(spec.width, 0);
  std::vector<std::pair<ExprPtr, size_t>> pin_exprs;  // literal, column
  std::vector<char> hostvar_eq(spec.width, 0);
  for (const ExprPtr& c : spec.conjuncts) {
    if (auto atom = ClassifyEqualityAtom(c)) {
      if (atom->column_pair) {
        dsu.Unite(atom->left, atom->right);
        referenced[atom->left] = 1;
        referenced[atom->right] = 1;
      } else {
        referenced[atom->left] = 1;
        if (atom->bound_value->kind() == ExprKind::kLiteral) {
          pin_exprs.emplace_back(atom->bound_value, atom->left);
        } else {
          hostvar_eq[atom->left] = 1;
        }
      }
      continue;
    }
    std::vector<size_t> cols = ReferencedColumns(c);
    if (cols.empty()) {
      Tribool t = c->EvaluatePredicate(Row(), /*params=*/{});
      if (!FalseInterpreted(t)) {
        return blocked("constant conjunct is not TRUE: " +
                       CanonicalExprText(c));
      }
      continue;
    }
    if (cols.size() > 1) {
      return blocked("conjunct beyond Type 1/Type 2 spans columns: " +
                     CanonicalExprText(c));
    }
    if (c->MaxHostVarIndexPlusOne() > 0) {
      return blocked("host variable in a non-equality conjunct: " +
                     CanonicalExprText(c));
    }
    referenced[cols[0]] = 1;
    singles[cols[0]].push_back({c, cols[0], spec.width, true});
  }

  // -- Constant pins per equivalence class (conflicts ⇒ empty result,
  //    under which the two sides trivially agree — refuse to refute).
  std::vector<std::optional<Value>> pin(spec.width);
  for (const auto& [lit, col] : pin_exprs) {
    size_t root = dsu.Find(col);
    if (pin[root].has_value() &&
        !pin[root]->NullSafeEquals(lit->literal())) {
      return blocked("conflicting constant bindings for " +
                     frame.column(col).QualifiedName());
    }
    pin[root] = lit->literal();
  }

  // -- Declared CHECKs: single-column ones join the per-column predicate
  //    sets; multi-column ones are satisfied later by explicit test
  //    assignment.
  struct MultiCheck {
    size_t table = 0;
    const CheckConstraint* check = nullptr;
    std::vector<size_t> local_cols;
  };
  std::vector<MultiCheck> multi_checks;
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    const SymbolicTable& t = spec.tables[ti];
    size_t tw = t.get->table().schema().num_columns();
    for (const CheckConstraint& check : t.get->table().checks()) {
      std::vector<size_t> cols = ReferencedColumns(check.predicate);
      if (cols.empty()) {
        Tribool v = check.predicate->EvaluatePredicate(Row(), {});
        if (!TrueInterpreted(v)) {
          return blocked("constant CHECK on " + t.get->table().name() +
                         " is FALSE (table must be empty)");
        }
        continue;
      }
      if (cols.size() == 1) {
        checks[t.offset + cols[0]].push_back(
            {check.predicate, cols[0], tw, false});
      } else {
        multi_checks.push_back({ti, &check, cols});
      }
    }
  }

  // -- Per-class satisfiability: every constrained equivalence class
  //    must admit at least one non-NULL test-point value that satisfies
  //    all member predicates and CHECKs.
  std::map<size_t, std::vector<size_t>> classes;
  for (size_t c = 0; c < spec.width; ++c) classes[dsu.Find(c)].push_back(c);
  std::vector<std::optional<Value>> chosen(spec.width);  // per root
  auto passes_members = [&](const std::vector<size_t>& members,
                            const Value& v) {
    for (size_t m : members) {
      if (!Passes(singles[m], v) || !Passes(checks[m], v)) return false;
    }
    return true;
  };
  for (const auto& [root, members] : classes) {
    bool constrained = members.size() > 1 || pin[root].has_value() ||
                       hostvar_eq[root] != 0;
    for (size_t m : members) {
      constrained = constrained || !singles[m].empty() || !checks[m].empty();
    }
    if (!constrained) continue;
    if (pin[root].has_value()) {
      if (!passes_members(members, *pin[root])) {
        return blocked("constant binding " + pin[root]->ToString() + " for " +
                       frame.column(members[0]).QualifiedName() +
                       " violates a predicate or CHECK");
      }
      chosen[root] = *pin[root];
      continue;
    }
    std::vector<SinglePred> all_singles;
    std::vector<SinglePred> all_checks;
    for (size_t m : members) {
      all_singles.insert(all_singles.end(), singles[m].begin(),
                         singles[m].end());
      all_checks.insert(all_checks.end(), checks[m].begin(), checks[m].end());
    }
    bool found = false;
    for (const Value& v :
         Candidates(frame.column(members[0]).type, all_singles, all_checks)) {
      if (passes_members(members, v)) {
        chosen[root] = v;
        found = true;
        break;
      }
    }
    if (!found) {
      return blocked("no satisfying test-point value found for " +
                     frame.column(members[0]).QualifiedName());
    }
  }

  // -- Multi-column CHECKs: search a bounded assignment of their
  //    referenced columns (preferring NULL, which a true-interpreted
  //    CHECK accepts whenever it yields UNKNOWN). Columns so assigned
  //    are fixed and excluded from the differing set.
  std::vector<std::optional<Value>> fixed(spec.width);
  std::vector<char> fixed_null(spec.width, 0);
  std::map<size_t, std::vector<MultiCheck*>> per_table_multi;
  for (MultiCheck& mc : multi_checks) per_table_multi[mc.table].push_back(&mc);
  for (auto& [ti, mcs] : per_table_multi) {
    const SymbolicTable& t = spec.tables[ti];
    size_t tw = t.get->table().schema().num_columns();
    std::vector<size_t> ref_local;
    for (const MultiCheck* mc : mcs) {
      ref_local.insert(ref_local.end(), mc->local_cols.begin(),
                       mc->local_cols.end());
    }
    std::sort(ref_local.begin(), ref_local.end());
    ref_local.erase(std::unique(ref_local.begin(), ref_local.end()),
                    ref_local.end());
    // Option list per referenced column; NULL only where the witness is
    // otherwise free to choose it.
    std::vector<std::vector<Value>> options;
    for (size_t lc : ref_local) {
      size_t g = t.offset + lc;
      const Column& col = t.get->table().schema().column(lc);
      std::vector<Value> opts;
      size_t root = dsu.Find(g);
      if (chosen[root].has_value()) {
        opts.push_back(*chosen[root]);
      } else if (referenced[g] || classes[root].size() > 1) {
        // Equated or filtered but unvalued: should not happen (such a
        // class is constrained above); be conservative.
        return blocked("multi-column CHECK on " + t.get->table().name() +
                       " references an equated but unvalued column");
      } else {
        if (col.nullable) opts.push_back(Value::Null(col.type));
        for (const Value& v : Candidates(col.type, {}, checks[g])) {
          if (Passes(checks[g], v)) opts.push_back(v);
          if (opts.size() >= 4) break;
        }
      }
      if (opts.empty()) {
        return blocked("no candidate value for " +
                       frame.column(g).QualifiedName() +
                       " under its CHECKs");
      }
      if (opts.size() > 4) opts.resize(4);
      options.push_back(std::move(opts));
    }
    // Bounded cartesian search for an assignment all multi-column CHECKs
    // of this table accept.
    std::vector<size_t> idx(options.size(), 0);
    bool satisfied = false;
    for (size_t combos = 0; combos < 64; ++combos) {
      std::vector<Value> cells(tw);
      for (size_t i = 0; i < ref_local.size(); ++i) {
        cells[ref_local[i]] = options[i][idx[i]];
      }
      Row row(std::move(cells));
      bool ok = true;
      for (const MultiCheck* mc : mcs) {
        if (!TrueInterpreted(mc->check->predicate->EvaluatePredicate(row, {}))) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (size_t i = 0; i < ref_local.size(); ++i) {
          size_t g = t.offset + ref_local[i];
          if (options[i][idx[i]].is_null()) {
            fixed_null[g] = 1;
          } else {
            fixed[g] = options[i][idx[i]];
          }
        }
        satisfied = true;
        break;
      }
      // Advance the mixed-radix counter.
      size_t d = 0;
      while (d < idx.size() && ++idx[d] == options[d].size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == idx.size()) break;
    }
    if (!satisfied) {
      return blocked("no test assignment satisfies the multi-column CHECKs on " +
                     t.get->table().name());
    }
  }

  // -- Foreign keys: the witness instance must be extensible to satisfy
  //    every inclusion dependency. Safe when the source column is NULL /
  //    freely NULLable, or when the join to the referenced table is
  //    present as an equality atom (same union-find class).
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    const SymbolicTable& t = spec.tables[ti];
    for (const ForeignKeyConstraint& fk : t.get->table().foreign_keys()) {
      for (size_t j = 0; j < fk.columns.size(); ++j) {
        size_t g = t.offset + fk.columns[j];
        const Column& col = t.get->table().schema().column(fk.columns[j]);
        if (fixed_null[g] != 0) continue;
        bool free_nullable = col.nullable && referenced[g] == 0 &&
                             !fixed[g].has_value() &&
                             classes[dsu.Find(g)].size() == 1;
        if (free_nullable) {
          fixed_null[g] = 1;  // reserve NULL: FKs ignore NULL sources
          continue;
        }
        bool joined = false;
        for (const SymbolicTable& rt : spec.tables) {
          if (rt.get->table().name() != fk.ref_table) continue;
          auto ord = rt.get->table().ColumnOrdinal(fk.ref_columns[j]);
          if (!ord.ok()) continue;
          if (dsu.Find(g) == dsu.Find(rt.offset + *ord)) {
            joined = true;
            break;
          }
        }
        if (!joined) {
          return blocked("foreign key " + fk.name + " on " +
                         t.get->table().name() +
                         " constrains the witness instance");
        }
      }
    }
  }

  // -- The differing set D: free columns (or whole join classes) with
  //    at least two admissible values. Every candidate key of the
  //    uncovered table must intersect D (otherwise some key forces the
  //    two rows equal and there is no counterexample), and every table
  //    that ends up holding two row variants must break each of its own
  //    keys too, or the variants collide on a UNIQUE constraint.
  const SymbolicTable& target = spec.tables[req.uncovered_table];
  size_t tw = target.get->table().schema().num_columns();
  struct Differ {
    size_t global = 0;             ///< representative column
    std::vector<size_t> members;   ///< all columns moving together
    Value v1, v2;
  };
  std::vector<Differ> differ;
  std::vector<char> in_d(spec.width, 0);

  auto owner_of = [&](size_t g) {
    for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
      const SymbolicTable& t = spec.tables[ti];
      size_t w = t.get->table().schema().num_columns();
      if (g >= t.offset && g < t.offset + w) return ti;
    }
    return spec.tables.size();
  };
  auto is_fk_source = [&](size_t g) {
    size_t ti = owner_of(g);
    if (ti >= spec.tables.size()) return false;
    const SymbolicTable& t = spec.tables[ti];
    size_t lc = g - t.offset;
    for (const ForeignKeyConstraint& fk : t.get->table().foreign_keys()) {
      for (size_t src : fk.columns) {
        if (src == lc) return true;
      }
    }
    return false;
  };

  // A lone free column differs between the rows when nothing ties it to
  // another column, a fixed assignment, or a host variable, and two
  // non-NULL values pass its predicates and CHECKs.
  auto try_vary_single = [&](size_t g) {
    if (in_d[g] != 0) return true;
    if (g < req.bound.size() && req.bound[g] != 0) return false;
    if (referenced[g] != 0 || fixed[g].has_value() || fixed_null[g] != 0) {
      return false;
    }
    if (classes[dsu.Find(g)].size() > 1 || pin[dsu.Find(g)].has_value() ||
        hostvar_eq[g] != 0) {
      return false;
    }
    if (is_fk_source(g)) return false;
    std::vector<Value> passing;
    for (const Value& v :
         Candidates(frame.column(g).type, singles[g], checks[g])) {
      if (Passes(singles[g], v) && Passes(checks[g], v)) {
        passing.push_back(v);
        if (passing.size() == 2) break;
      }
    }
    if (passing.size() < 2) return false;
    differ.push_back({g, {g}, passing[0], passing[1]});
    in_d[g] = 1;
    return true;
  };

  // A join class varies as one unit: all members take value v1 in row 1
  // and v2 in row 2, so every equality atom keeps holding. Requires no
  // member agreed/fixed/host-var-bound and two values passing every
  // member's predicates and CHECKs. FK sources inside the class are
  // safe: the FK pass above already demanded their referenced key
  // column share the class, so source and target move together.
  auto try_vary_class = [&](size_t g) {
    if (in_d[g] != 0) return true;
    size_t root = dsu.Find(g);
    const std::vector<size_t>& members = classes[root];
    if (members.size() < 2) return false;
    if (pin[root].has_value()) return false;
    for (size_t m : members) {
      if (m < req.bound.size() && req.bound[m] != 0) return false;
      if (fixed[m].has_value() || fixed_null[m] != 0) return false;
      if (hostvar_eq[m] != 0) return false;
    }
    std::vector<SinglePred> all_singles;
    std::vector<SinglePred> all_checks;
    for (size_t m : members) {
      all_singles.insert(all_singles.end(), singles[m].begin(),
                         singles[m].end());
      all_checks.insert(all_checks.end(), checks[m].begin(),
                        checks[m].end());
    }
    std::vector<Value> passing;
    for (const Value& v :
         Candidates(frame.column(members[0]).type, all_singles, all_checks)) {
      bool ok = true;
      for (size_t m : members) {
        ok = ok && Passes(singles[m], v) && Passes(checks[m], v);
      }
      if (ok) {
        passing.push_back(v);
        if (passing.size() == 2) break;
      }
    }
    if (passing.size() < 2) return false;
    differ.push_back({members[0], members, passing[0], passing[1]});
    for (size_t m : members) in_d[m] = 1;
    return true;
  };

  // Worklist: break every key of every touched table. The uncovered
  // table is touched by definition; varying a class touches every table
  // owning a member, which can in turn require more columns to differ.
  std::vector<char> checked(spec.tables.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<char> touched(spec.tables.size(), 0);
    touched[req.uncovered_table] = 1;
    for (const Differ& d : differ) {
      for (size_t m : d.members) {
        size_t ti = owner_of(m);
        if (ti < spec.tables.size()) touched[ti] = 1;
      }
    }
    for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
      if (touched[ti] == 0 || checked[ti] != 0) continue;
      const SymbolicTable& t = spec.tables[ti];
      for (const KeyConstraint& key : t.get->table().keys()) {
        bool differs = false;
        for (size_t kc : key.columns) {
          if (in_d[t.offset + kc] != 0) differs = true;
        }
        for (size_t kc : key.columns) {
          if (differs) break;
          differs = try_vary_single(t.offset + kc) ||
                    try_vary_class(t.offset + kc);
        }
        if (!differs) {
          return blocked(
              "candidate key " +
              (key.name.empty() ? t.get->table().name() : key.name) +
              " cannot be broken: all its columns are pinned, "
              "host-var-bound, or agreed");
        }
      }
      checked[ti] = 1;
      progress = true;
    }
  }
  if (differ.empty()) {
    return blocked("no free column of " + target.get->table().name() +
                   " admits two values");
  }

  // Tables holding two row variants in the witness instance.
  std::vector<char> touched(spec.tables.size(), 0);
  touched[req.uncovered_table] = 1;
  for (const Differ& d : differ) {
    for (size_t m : d.members) {
      size_t ti = owner_of(m);
      if (ti < spec.tables.size()) touched[ti] = 1;
    }
  }

  // -- Assemble the witness.
  std::string w = "two-row chase counterexample over " +
                  target.get->table().name() + " " + target.get->alias() +
                  ":\n";
  w += "  rows r1, r2 agree on every closure column";
  std::string agreed;
  for (size_t lc = 0; lc < tw; ++lc) {
    size_t g = target.offset + lc;
    if (g < req.bound.size() && req.bound[g] != 0) {
      if (!agreed.empty()) agreed += ", ";
      agreed += frame.column(g).QualifiedName();
    }
  }
  w += agreed.empty() ? " (none lies in " + target.get->alias() + ")"
                      : " (" + agreed + ")";
  bool any_untouched = false;
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    any_untouched = any_untouched || touched[ti] == 0;
  }
  w += any_untouched ? " and reuse one row per untouched table"
                     : " (two row variants in every table)";
  w += "\n  r1 / r2 differ at:";
  for (const Differ& d : differ) {
    std::string names;
    for (size_t m : d.members) {
      if (!names.empty()) names += "=";
      names += frame.column(m).QualifiedName();
    }
    w += " " + names + " (" + d.v1.ToString() + " vs " + d.v2.ToString() +
         ")";
  }
  w += "\n  every candidate key differs:";
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    if (touched[ti] == 0) continue;
    const SymbolicTable& t = spec.tables[ti];
    for (const KeyConstraint& key : t.get->table().keys()) {
      w += " " + (key.name.empty() ? std::string("key") : key.name) + "(";
      for (size_t i = 0; i < key.columns.size(); ++i) {
        if (i) w += ",";
        w += t.get->table().schema().column(key.columns[i]).name;
      }
      w += ")";
    }
  }
  std::string nulled;
  std::string pinned_text;
  for (size_t g = 0; g < spec.width; ++g) {
    if (fixed_null[g] != 0) {
      if (!nulled.empty()) nulled += ", ";
      nulled += frame.column(g).QualifiedName();
    } else if (fixed[g].has_value()) {
      if (!pinned_text.empty()) pinned_text += ", ";
      pinned_text += frame.column(g).QualifiedName() + "=" +
                     fixed[g]->ToString();
    }
  }
  if (!nulled.empty()) {
    w += "\n  set NULL for CHECK/FK neutrality: " + nulled;
  }
  if (!pinned_text.empty()) {
    w += "\n  fixed for CHECK satisfiability: " + pinned_text;
  }
  w += "\n  both rows satisfy every conjunct and declared constraint";
  return w;
}

}  // namespace equiv
}  // namespace uniqopt
