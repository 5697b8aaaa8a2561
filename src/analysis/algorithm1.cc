#include "analysis/algorithm1.h"

#include "analysis/near_miss.h"
#include "expr/equality.h"
#include "expr/normalize.h"
#include "obs/metrics.h"

namespace uniqopt {

Result<std::vector<ExprPtr>> CnfConjuncts(
    const std::vector<ExprPtr>& predicates) {
  std::vector<ExprPtr> conjuncts;
  for (const ExprPtr& pred : predicates) {
    UNIQOPT_ASSIGN_OR_RETURN(ExprPtr cnf, ToCnf(pred));
    for (const ExprPtr& c : FlattenAnd(cnf)) conjuncts.push_back(c);
  }
  return conjuncts;
}

AttributeSet BoundColumnClosure(const std::vector<ExprPtr>& conjuncts,
                                const AttributeSet& initially_bound,
                                const AnalysisOptions& options,
                                bool* any_equality_kept,
                                ProofTrace* proof) {
  // Lines 6–9: keep only conjuncts that are single atomic Type 1 / Type 2
  // equalities. A conjunct that is a disjunction ("X = 5 OR X = 10") or a
  // non-equality atom is deleted; deletion weakens C, so the final test
  // remains sufficient.
  std::vector<EqualityAtom> kept;
  std::vector<std::string> kept_text;  // aligned with `kept`, for the proof
  auto record_conjunct = [proof](const ExprPtr& conj,
                                 ConjunctDisposition disposition) {
    if (proof != nullptr) {
      proof->conjuncts.push_back({conj->ToString(), disposition});
    }
  };
  for (const ExprPtr& conj : conjuncts) {
    std::vector<ExprPtr> disjuncts = FlattenOr(conj);
    if (disjuncts.size() > 1) {
      record_conjunct(conj, ConjunctDisposition::kDeletedDisjunction);
      continue;
    }
    if (conj->IsTrueLiteral()) continue;
    EqualityAtom atom = ClassifyAtom(conj);
    if (atom.type == AtomType::kOther) {
      record_conjunct(conj, ConjunctDisposition::kDeletedNonEquality);
      continue;
    }
    if (atom.type == AtomType::kType1ColumnConstant &&
        !options.bind_constants) {
      record_conjunct(conj, ConjunctDisposition::kDeletedBySwitch);
      continue;
    }
    if (atom.type == AtomType::kType2ColumnColumn &&
        !options.use_column_equivalence) {
      record_conjunct(conj, ConjunctDisposition::kDeletedBySwitch);
      continue;
    }
    record_conjunct(conj, atom.type == AtomType::kType1ColumnConstant
                              ? ConjunctDisposition::kKeptType1
                              : ConjunctDisposition::kKeptType2);
    kept.push_back(atom);
    if (proof != nullptr) kept_text.push_back(conj->ToString());
  }
  if (any_equality_kept != nullptr) *any_equality_kept = !kept.empty();
  if (proof != nullptr) {
    for (size_t pos : initially_bound.ToVector()) {
      proof->initially_bound.push_back(proof->NameOf(pos));
    }
  }

  // Line 13–14: V starts as the projection attributes plus every column
  // equated to a constant or host variable.
  AttributeSet bound = initially_bound;
  for (size_t i = 0; i < kept.size(); ++i) {
    const EqualityAtom& atom = kept[i];
    if (atom.type != AtomType::kType1ColumnConstant) continue;
    if (proof != nullptr && !bound.Contains(atom.column)) {
      proof->closure_steps.push_back(
          {atom.column, proof->NameOf(atom.column), kept_text[i], 0});
    }
    bound.Add(atom.column);
  }
  // Lines 15–16: transitive closure of V over Type 2 conditions.
  bool changed = true;
  int round = 0;
  while (changed) {
    changed = false;
    ++round;
    for (size_t i = 0; i < kept.size(); ++i) {
      const EqualityAtom& atom = kept[i];
      if (atom.type != AtomType::kType2ColumnColumn) continue;
      size_t added;
      if (bound.Contains(atom.column) && !bound.Contains(atom.other_column)) {
        added = atom.other_column;
      } else if (bound.Contains(atom.other_column) &&
                 !bound.Contains(atom.column)) {
        added = atom.column;
      } else {
        continue;
      }
      bound.Add(added);
      changed = true;
      if (proof != nullptr) {
        proof->closure_steps.push_back(
            {added, proof->NameOf(added), kept_text[i], round});
      }
    }
  }
  if (proof != nullptr) {
    for (size_t pos : bound.ToVector()) {
      proof->closure.push_back(proof->NameOf(pos));
    }
  }
  return bound;
}

namespace {

// Frame display names for a spec shape: position p belongs to the table
// whose [offset, offset + arity) range contains it.
std::vector<std::string> ShapeColumnNames(const SpecShape& shape) {
  std::vector<std::string> names(shape.width);
  for (const SpecShape::BaseTable& bt : shape.tables) {
    const Schema& schema = bt.get->schema();
    for (size_t j = 0; j < schema.num_columns(); ++j) {
      size_t pos = bt.offset + j;
      if (pos < names.size()) names[pos] = schema.column(j).QualifiedName();
    }
  }
  return names;
}

}  // namespace

bool KeyCovered(const TableDef& table, const std::string& alias,
                size_t shift, const AttributeSet& bound,
                const AnalysisOptions& options, ProofTrace* proof) {
  for (const KeyConstraint& key : table.keys()) {
    if (key.kind == KeyKind::kUnique && !options.use_unique_keys) continue;
    bool covered =
        AttributeSet::FromVector(key.columns).Shifted(shift).IsSubsetOf(bound);
    if (proof != nullptr) {
      ProofKeyOutcome outcome;
      outcome.table = table.name();
      outcome.alias = alias;
      outcome.key_name = key.name;
      for (size_t col : key.columns) {
        size_t pos = shift + col;
        outcome.key_columns.push_back(proof->NameOf(pos));
        if (!bound.Contains(pos)) {
          outcome.missing_columns.push_back(proof->NameOf(pos));
        }
      }
      proof->keys.push_back(std::move(outcome));
    }
    if (covered) return true;
  }
  return false;
}

Result<Algorithm1Result> RunAlgorithm1(const SpecShape& shape,
                                       const Algorithm1Options& options) {
  obs::MetricsRegistry::Global().GetCounter("analysis.algorithm1.runs")
      .Increment();
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("analysis.algorithm1.ns");
  obs::ScopedLatencyTimer timer(&latency);
  Algorithm1Result result;
  ProofTrace& proof = result.proof;
  proof.recorded = true;
  proof.column_names = ShapeColumnNames(shape);
  // Line 5: C := C_R ∧ C_S ∧ C_{R,S} ∧ T, in CNF. Top-level conjuncts of
  // each Select predicate are CNF-normalized individually so that e.g.
  // `a = b AND (x = 1 OR y = 2)` keeps its useful first conjunct.
  Result<std::vector<ExprPtr>> conjuncts = CnfConjuncts(shape.predicates);
  if (!conjuncts.ok()) {
    // Predicate too complex to normalize: give up conservatively.
    proof.conclusion = "NO: CNF budget exceeded";
    return result;
  }

  // Projection attribute positions (over the product schema).
  AttributeSet projection =
      AttributeSet::FromVector(shape.project->columns());
  bool any_kept = false;
  AttributeSet bound =
      BoundColumnClosure(*conjuncts, projection, options, &any_kept, &proof);
  if (!any_kept && options.verbatim_line10) {
    // Line 10 of the published algorithm: C reduced to T ⇒ NO.
    proof.conclusion = "NO: C = T after deletions (verbatim line 10)";
    return result;
  }

  // Line 17: Key(R) ⊕ Key(S) ⊆ V — generalized: every FROM table must
  // have at least one candidate key fully inside V.
  for (const SpecShape::BaseTable& bt : shape.tables) {
    const TableDef& table = bt.get->table();
    if (KeyCovered(table, bt.get->alias(), bt.offset, bound, options,
                   &proof)) {
      continue;
    }
    proof.conclusion =
        table.HasAnyKey()
            ? "NO: no candidate key of " + table.name() + " (" +
                  bt.get->alias() + ") is covered by V"
            : "NO: table " + table.name() + " has no declared candidate key";
    if (options.collect_near_misses) {
      ComputeTableNearMiss("theorem1.distinct", table, bt.get->alias(),
                           bt.offset, bound, projection, options,
                           &result.near_misses);
    }
    return result;
  }
  result.yes = true;
  proof.conclusion =
      "YES: every FROM table has a candidate key covered by V; "
      "duplicate elimination is unnecessary (Theorem 1)";
  obs::MetricsRegistry::Global().GetCounter("analysis.algorithm1.yes")
      .Increment();
  return result;
}

}  // namespace uniqopt
