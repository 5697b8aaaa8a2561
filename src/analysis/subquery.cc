#include "analysis/subquery.h"

#include "analysis/algorithm1.h"
#include "analysis/near_miss.h"
#include "analysis/shape.h"
#include "obs/metrics.h"

namespace uniqopt {

std::string SubqueryVerdict::ExplainProof() const {
  std::string out = "Theorem 2 verdict: ";
  out += at_most_one_match
             ? "at most one inner row matches each outer row"
             : "more than one inner match possible (condition not proven)";
  out += "\n";
  out += proof.ToText();
  return out;
}

namespace {

// Display names for the combined outer ⊕ inner frame.
std::vector<std::string> CombinedColumnNames(const ExistsNode& node) {
  std::vector<std::string> names;
  const Schema& outer = node.outer()->schema();
  for (size_t i = 0; i < outer.num_columns(); ++i) {
    names.push_back(outer.column(i).QualifiedName());
  }
  const Schema& inner = node.sub()->schema();
  for (size_t i = 0; i < inner.num_columns(); ++i) {
    names.push_back(inner.column(i).QualifiedName());
  }
  return names;
}

}  // namespace

Result<SubqueryVerdict> TestSubqueryAtMostOneMatch(
    const ExistsNode& node, const AnalysisOptions& options) {
  obs::MetricsRegistry::Global().GetCounter("analysis.subquery.runs")
      .Increment();
  SubqueryVerdict verdict;
  if (node.negated()) {
    return Status::InvalidArgument(
        "Theorem 2 applies to positive existential subqueries");
  }
  size_t outer_width = node.outer()->schema().num_columns();
  verdict.proof.recorded = true;
  verdict.proof.column_names = CombinedColumnNames(node);
  ProofTrace* proof = &verdict.proof;

  // Decompose the inner plan into base tables and inner-local predicates.
  UNIQOPT_ASSIGN_OR_RETURN(SpecShape inner_shape,
                           ExtractProductShape(node.sub()));

  // Assemble the full C_S ∧ C_{R,S}: inner-local predicates shifted into
  // the combined (outer ⊕ inner) frame, plus the correlation predicate.
  std::vector<ExprPtr> predicates;
  for (const ExprPtr& pred : inner_shape.predicates) {
    predicates.push_back(ShiftColumns(pred, outer_width));
  }
  predicates.push_back(node.correlation());
  Result<std::vector<ExprPtr>> conjuncts = CnfConjuncts(predicates);
  if (!conjuncts.ok()) {
    proof->conclusion = "NOT PROVEN: CNF budget exceeded";
    return verdict;
  }

  // Outer columns are constants for each candidate outer row.
  AttributeSet bound =
      BoundColumnClosure(*conjuncts, AttributeSet::AllUpTo(outer_width),
                         options, nullptr, proof);

  // Every inner base table must have a covered candidate key.
  for (const SpecShape::BaseTable& bt : inner_shape.tables) {
    const TableDef& table = bt.get->table();
    size_t shift = outer_width + bt.offset;
    if (KeyCovered(table, bt.get->alias(), shift, bound, options, proof)) {
      continue;
    }
    proof->conclusion =
        table.HasAnyKey()
            ? "NOT PROVEN: no candidate key of inner table " + table.name() +
                  " is covered by V"
            : "NOT PROVEN: inner table " + table.name() +
                  " has no declared candidate key";
    if (options.collect_near_misses) {
      ComputeTableNearMiss("theorem2.subquery_to_join", table,
                           bt.get->alias(), shift, bound, AttributeSet(),
                           options, &verdict.near_misses);
    }
    return verdict;
  }
  verdict.at_most_one_match = true;
  proof->conclusion =
      "PROVEN: every inner table's candidate key is bound; at most one "
      "inner row matches each outer row (Theorem 2)";
  obs::MetricsRegistry::Global().GetCounter("analysis.subquery.proven")
      .Increment();
  return verdict;
}

}  // namespace uniqopt
