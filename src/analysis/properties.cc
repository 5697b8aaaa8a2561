#include "analysis/properties.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

std::string DerivedProperties::ToString() const {
  std::string out = "width=" + std::to_string(width);
  out += " fds=" + fds.ToString();
  out += " keys=[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i].ToString();
  }
  out += "]";
  return out;
}

void HarvestPredicateFds(const ExprPtr& predicate,
                         const AnalysisOptions& options, FdSet* fds) {
  for (const ExprPtr& atom : FlattenAnd(predicate)) {
    EqualityAtom a = ClassifyAtom(atom);
    switch (a.type) {
      case AtomType::kType1ColumnConstant:
        // WHERE is false-interpreted: the row passed only if the
        // comparison was TRUE, so the column is non-NULL and pinned.
        if (options.bind_constants) fds->AddConstant(a.column);
        break;
      case AtomType::kType2ColumnColumn:
        if (options.use_column_equivalence) {
          fds->AddEquivalence(a.column, a.other_column);
        }
        break;
      case AtomType::kOther:
        break;
    }
  }
}

namespace {

void DedupeKeys(std::vector<AttributeSet>* keys) {
  // Drop keys that are supersets of other keys, and exact duplicates;
  // keep at most kMaxDerivedKeys.
  std::vector<AttributeSet> out;
  for (const AttributeSet& k : *keys) {
    if (out.size() == kMaxDerivedKeys) break;
    bool dominated = false;
    for (const AttributeSet& other : *keys) {
      if (&other == &k) continue;
      if (other.IsSubsetOf(k) && other != k) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    if (std::find(out.begin(), out.end(), k) == out.end()) {
      out.push_back(k);
    }
  }
  *keys = std::move(out);
}

DerivedProperties DeriveGet(const GetNode& get,
                            const AnalysisOptions& options) {
  DerivedProperties props;
  const TableDef& table = get.table();
  props.width = table.schema().num_columns();
  AttributeSet universe = AttributeSet::AllUpTo(props.width);
  for (const KeyConstraint& key : table.keys()) {
    if (key.kind == KeyKind::kUnique && !options.use_unique_keys) continue;
    AttributeSet key_set = AttributeSet::FromVector(key.columns);
    FunctionalDependency fd;
    fd.lhs = key_set;
    fd.rhs = universe.Difference(key_set);
    props.fds.Add(std::move(fd));
    props.keys.push_back(std::move(key_set));
  }
  if (options.use_check_constraints) {
    // A CHECK that pins a NOT NULL column to a single value makes the
    // column constant under `=!`. (True-interpretation: a nullable
    // column may still be NULL, which differs from the pinned value.)
    for (const CheckConstraint& check : table.checks()) {
      for (const ExprPtr& atom : FlattenAnd(check.predicate)) {
        EqualityAtom a = ClassifyAtom(atom);
        if (a.type == AtomType::kType1ColumnConstant &&
            !table.schema().column(a.column).nullable) {
          props.fds.AddConstant(a.column);
        }
      }
    }
  }
  return props;
}

DerivedProperties DeriveSelect(const SelectNode& select,
                               const DerivedProperties& input,
                               const AnalysisOptions& options) {
  DerivedProperties props = input;
  HarvestPredicateFds(select.predicate(), options, &props.fds);
  DedupeKeys(&props.keys);
  return props;
}

DerivedProperties DeriveProduct(const DerivedProperties& left,
                                const DerivedProperties& right) {
  DerivedProperties props;
  props.width = left.width + right.width;
  props.fds = left.fds;
  props.fds.Append(right.fds.Shifted(left.width));
  // Key(R × S) = Key(R) ⊕ Key(S), the paper's concatenation, up to
  // kMaxDerivedKeys combinations.
  for (const AttributeSet& kl : left.keys) {
    for (const AttributeSet& kr : right.keys) {
      if (props.keys.size() == kMaxDerivedKeys) return props;
      props.keys.push_back(kl.Union(kr.Shifted(left.width)));
    }
  }
  return props;
}

DerivedProperties DeriveProject(const ProjectNode& project,
                                const DerivedProperties& input) {
  DerivedProperties props;
  const std::vector<size_t>& cols = project.columns();
  props.width = cols.size();
  props.fds = input.fds.ProjectTo(cols);

  AttributeSet kept = AttributeSet::FromVector(cols);
  std::map<size_t, size_t> renumber;
  for (size_t i = 0; i < cols.size(); ++i) renumber[cols[i]] = i;
  auto renumber_set = [&](const AttributeSet& s) {
    AttributeSet out;
    for (size_t a : s.ToVector()) {
      auto it = renumber.find(a);
      if (it != renumber.end()) out.Add(it->second);
    }
    return out;
  };

  // A key of the input that is functionally determined by the kept
  // columns makes the projection duplicate-free; the determining subset
  // of kept columns is then a derived key of the output.
  AttributeSet kept_closure = input.fds.Closure(kept);
  for (const AttributeSet& key : input.keys) {
    if (key.IsSubsetOf(kept_closure)) {
      // Whole projected row is a key; try to shrink to kept∩closure
      // seeds for a smaller one.
      AttributeSet seed = key.Intersect(kept);
      if (key.IsSubsetOf(input.fds.Closure(seed))) {
        props.keys.push_back(renumber_set(seed));
      } else {
        props.keys.push_back(AttributeSet::AllUpTo(props.width));
      }
    }
  }
  if (project.mode() == DuplicateMode::kDist) {
    // π_Dist output has no duplicate rows by construction.
    props.keys.push_back(AttributeSet::AllUpTo(props.width));
  }
  DedupeKeys(&props.keys);
  return props;
}

DerivedProperties DeriveExists(const ExistsNode& exists,
                               const DerivedProperties& outer,
                               const AnalysisOptions& options) {
  // Semi/anti join: output rows are a sub-multiset of outer rows, so all
  // outer FDs and keys still hold. For a positive EXISTS, correlation
  // conjuncts that reference only outer columns additionally filter the
  // output like a Select.
  DerivedProperties props = outer;
  if (!exists.negated()) {
    for (const ExprPtr& atom : FlattenAnd(exists.correlation())) {
      std::vector<size_t> cols;
      atom->CollectColumns(&cols);
      bool outer_only = true;
      for (size_t c : cols) outer_only = outer_only && c < outer.width;
      if (!outer_only) continue;
      FdSet harvested;
      HarvestPredicateFds(atom, options, &harvested);
      props.fds.Append(harvested);
    }
  }
  return props;
}

DerivedProperties DeriveSetOp(const SetOpNode& setop,
                              const DerivedProperties& left) {
  // INTERSECT [ALL]: counts are min(j,k) ≤ j; EXCEPT [ALL]: max(j−k,0)
  // ≤ j. Either way the result is a sub-multiset of the left input (up
  // to `=!` value identity), so left FDs and keys carry over.
  DerivedProperties props = left;
  if (setop.mode() == DuplicateMode::kDist) {
    props.keys.push_back(AttributeSet::AllUpTo(props.width));
    DedupeKeys(&props.keys);
  }
  return props;
}

}  // namespace

DerivedProperties DeriveProperties(const PlanPtr& plan,
                                   const AnalysisOptions& options) {
  switch (plan->kind()) {
    case PlanKind::kGet:
      return DeriveGet(*As<GetNode>(plan), options);
    case PlanKind::kSelect: {
      const SelectNode& node = *As<SelectNode>(plan);
      return DeriveSelect(node, DeriveProperties(node.input(), options),
                          options);
    }
    case PlanKind::kProduct: {
      const ProductNode& node = *As<ProductNode>(plan);
      return DeriveProduct(DeriveProperties(node.left(), options),
                           DeriveProperties(node.right(), options));
    }
    case PlanKind::kProject: {
      const ProjectNode& node = *As<ProjectNode>(plan);
      return DeriveProject(node, DeriveProperties(node.input(), options));
    }
    case PlanKind::kExists: {
      const ExistsNode& node = *As<ExistsNode>(plan);
      return DeriveExists(node, DeriveProperties(node.outer(), options),
                          options);
    }
    case PlanKind::kSetOp: {
      const SetOpNode& node = *As<SetOpNode>(plan);
      return DeriveSetOp(node, DeriveProperties(node.left(), options));
    }
    case PlanKind::kAggregate: {
      // Grouping makes the group-column list a key of the output by
      // construction (one row per `=!`-distinct key). FDs among the
      // group columns survive from the input; a scalar aggregate has at
      // most one row (the empty set is a key).
      const AggregateNode& node = *As<AggregateNode>(plan);
      DerivedProperties input = DeriveProperties(node.input(), options);
      DerivedProperties props;
      props.width =
          node.group_columns().size() + node.aggregates().size();
      props.fds = input.fds.ProjectTo(node.group_columns());
      AttributeSet group_set;
      for (size_t i = 0; i < node.group_columns().size(); ++i) {
        group_set.Add(i);
      }
      // Group columns determine the aggregate outputs.
      AttributeSet agg_cols;
      for (size_t i = node.group_columns().size(); i < props.width; ++i) {
        agg_cols.Add(i);
      }
      if (!agg_cols.Empty()) props.fds.Add(group_set, agg_cols);
      props.keys.push_back(std::move(group_set));
      return props;
    }
  }
  UNIQOPT_DCHECK_MSG(false, "unhandled plan kind");
  return {};
}

}  // namespace uniqopt
