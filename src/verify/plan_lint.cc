#include "verify/plan_lint.h"

#include <string>
#include <vector>

namespace uniqopt {
namespace verify {

namespace {

void AddViolation(VerifyReport* report, ViolationCode code, std::string message,
                  std::string context = {}) {
  Violation v;
  v.analyzer = Analyzer::kPlanLint;
  v.code = code;
  v.message = std::move(message);
  v.context = std::move(context);
  report->violations.push_back(std::move(v));
}

/// Every column index referenced by `expr` must be < `width` (the width
/// of the frame the expression is bound against).
void CheckColumnRefs(const ExprPtr& expr, size_t width, const char* where,
                     const PlanNode& node, VerifyReport* report) {
  std::vector<size_t> cols;
  expr->CollectColumns(&cols);
  for (size_t c : cols) {
    if (c >= width) {
      AddViolation(report, ViolationCode::kDanglingColumnRef,
                   std::string(where) + " references column " +
                       std::to_string(c) + " but the frame has only " +
                       std::to_string(width) + " column(s)",
                   node.ToString());
      return;  // one report per expression is enough
    }
  }
}

/// The recorded output schema of `node` must match `expected` in width
/// and column types. (Nullability is intentionally not compared: plan
/// construction may conservatively widen it without affecting
/// soundness.)
void CheckSchema(const PlanNode& node, const Schema& expected,
                 VerifyReport* report) {
  const Schema& actual = node.schema();
  if (actual.num_columns() != expected.num_columns()) {
    AddViolation(report, ViolationCode::kSchemaWidthMismatch,
                 "operator records " + std::to_string(actual.num_columns()) +
                     " output column(s) but its children imply " +
                     std::to_string(expected.num_columns()),
                 node.ToString());
    return;
  }
  for (size_t i = 0; i < actual.num_columns(); ++i) {
    if (actual.column(i).type != expected.column(i).type) {
      AddViolation(
          report, ViolationCode::kSchemaTypeMismatch,
          "output column " + std::to_string(i) + " recorded as " +
              TypeIdToString(actual.column(i).type) + " but children imply " +
              TypeIdToString(expected.column(i).type),
          node.ToString());
      return;
    }
  }
}

/// Recursive structural walk: per-operator column-ref binding and
/// schema-propagation checks.
void LintNode(const PlanPtr& node, VerifyReport* report) {
  ++report->nodes_checked;
  for (size_t i = 0; i < node->num_children(); ++i) {
    LintNode(node->child(i), report);
  }
  switch (node->kind()) {
    case PlanKind::kGet: {
      const GetNode& get = *As<GetNode>(node);
      CheckSchema(*node,
                  get.table().schema().WithQualifier(get.alias()), report);
      break;
    }
    case PlanKind::kSelect: {
      const SelectNode& sel = *As<SelectNode>(node);
      CheckColumnRefs(sel.predicate(), sel.input()->schema().num_columns(),
                      "selection predicate", *node, report);
      CheckSchema(*node, sel.input()->schema(), report);
      break;
    }
    case PlanKind::kProject: {
      const ProjectNode& proj = *As<ProjectNode>(node);
      const Schema& in = proj.input()->schema();
      bool in_range = true;
      for (size_t c : proj.columns()) {
        if (c >= in.num_columns()) {
          AddViolation(report, ViolationCode::kDanglingColumnRef,
                       "projection selects column " + std::to_string(c) +
                           " but its input has only " +
                           std::to_string(in.num_columns()) + " column(s)",
                       node->ToString());
          in_range = false;
          break;
        }
      }
      if (in_range) CheckSchema(*node, in.Project(proj.columns()), report);
      break;
    }
    case PlanKind::kProduct: {
      const ProductNode& prod = *As<ProductNode>(node);
      CheckSchema(*node,
                  Schema::Concat(prod.left()->schema(),
                                 prod.right()->schema()),
                  report);
      break;
    }
    case PlanKind::kExists: {
      const ExistsNode& ex = *As<ExistsNode>(node);
      size_t combined = ex.outer()->schema().num_columns() +
                        ex.sub()->schema().num_columns();
      CheckColumnRefs(ex.correlation(), combined, "correlation predicate",
                      *node, report);
      CheckSchema(*node, ex.outer()->schema(), report);
      break;
    }
    case PlanKind::kSetOp: {
      const SetOpNode& setop = *As<SetOpNode>(node);
      if (!setop.left()->schema().UnionCompatible(setop.right()->schema())) {
        AddViolation(report, ViolationCode::kSetOpIncompatibleOperands,
                     "set operation over operands that are not union "
                     "compatible",
                     node->ToString());
      }
      CheckSchema(*node, setop.left()->schema(), report);
      break;
    }
    case PlanKind::kAggregate: {
      const AggregateNode& agg = *As<AggregateNode>(node);
      const Schema& in = agg.input()->schema();
      Schema expected;
      bool in_range = true;
      for (size_t c : agg.group_columns()) {
        if (c >= in.num_columns()) {
          AddViolation(report, ViolationCode::kDanglingColumnRef,
                       "GROUP BY column " + std::to_string(c) +
                           " exceeds the input width " +
                           std::to_string(in.num_columns()),
                       node->ToString());
          in_range = false;
          break;
        }
        expected.AddColumn(in.column(c));
      }
      for (const AggregateItem& item : agg.aggregates()) {
        if (item.func != AggFunc::kCountStar &&
            item.arg_column >= in.num_columns()) {
          AddViolation(report, ViolationCode::kDanglingColumnRef,
                       "aggregate argument column " +
                           std::to_string(item.arg_column) +
                           " exceeds the input width " +
                           std::to_string(in.num_columns()),
                       node->ToString());
          in_range = false;
          break;
        }
        Column c;
        c.name = item.name;
        c.type = AggregateNode::ResultType(
            item.func, item.func == AggFunc::kCountStar
                           ? TypeId::kInteger
                           : in.column(item.arg_column).type);
        expected.AddColumn(c);
      }
      if (in_range) CheckSchema(*node, expected, report);
      break;
    }
  }
}

/// True when the operator at the top of `plan` structurally eliminates
/// duplicate rows on its own (π_Dist, ∩_Dist/−_Dist, GROUP BY).
bool TopEliminatesDuplicates(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kProject:
      return As<ProjectNode>(plan)->mode() == DuplicateMode::kDist;
    case PlanKind::kSetOp:
      return As<SetOpNode>(plan)->mode() == DuplicateMode::kDist;
    case PlanKind::kAggregate:
      return true;
    default:
      return false;
  }
}

bool RuleAffectsDuplicates(RewriteRuleId rule) {
  switch (rule) {
    case RewriteRuleId::kRemoveRedundantDistinct:
    case RewriteRuleId::kIntersectToExists:
    case RewriteRuleId::kExceptToNotExists:
    case RewriteRuleId::kEliminateGroupByOnKey:
      return true;
    default:
      return false;
  }
}

bool HasEvidenceBody(const RewriteEvidence& e) {
  return e.proof.recorded || !e.facts.empty();
}

/// Every fired rewrite must mark its precondition proven, record the
/// before/after subtrees the equivalence prover certifies, and carry a
/// recorded proof or the derived facts its gate used.
void CheckRewriteEvidence(const std::vector<AppliedRewrite>& rewrites,
                          VerifyReport* report) {
  for (const AppliedRewrite& r : rewrites) {
    const char* rule = RewriteRuleIdToString(r.rule);
    if (!r.evidence.condition_proven) {
      AddViolation(report, ViolationCode::kRewriteWithoutProvenCondition,
                   std::string(rule) +
                       " fired without marking its precondition proven",
                   r.description);
      continue;
    }
    if (r.evidence.before == nullptr || r.evidence.after == nullptr) {
      AddViolation(report, ViolationCode::kRewriteMissingSubtrees,
                   std::string(rule) +
                       " fired without recording its before/after subtrees",
                   r.description);
      continue;
    }
    if (!HasEvidenceBody(r.evidence)) {
      AddViolation(report, ViolationCode::kRewriteMissingEvidence,
                   std::string(rule) +
                       " fired with neither a recorded proof nor derived "
                       "facts",
                   r.description);
    }
  }
}

}  // namespace

void LintPlan(const VerifyInput& input, VerifyReport* report) {
  if (input.optimized == nullptr) {
    AddViolation(report, ViolationCode::kMissingOptimizedPlan,
                 "verifier invoked without an optimized plan");
    return;
  }
  LintNode(input.optimized, report);

  if (input.rewrites != nullptr) {
    CheckRewriteEvidence(*input.rewrites, report);
  }

  // DISTINCT may disappear from the top of the plan only with a
  // duplicate-affecting rewrite carrying proof/fact evidence — a plan
  // that silently lost its duplicate elimination would return wrong
  // answers.
  if (input.original != nullptr && TopEliminatesDuplicates(input.original) &&
      !TopEliminatesDuplicates(input.optimized)) {
    bool justified = false;
    if (input.rewrites != nullptr) {
      for (const AppliedRewrite& r : *input.rewrites) {
        justified = justified || (RuleAffectsDuplicates(r.rule) &&
                                  r.evidence.condition_proven &&
                                  HasEvidenceBody(r.evidence));
      }
    }
    if (!justified) {
      AddViolation(report, ViolationCode::kDistinctDroppedWithoutProof,
                   "the original plan eliminates duplicates at the top but "
                   "the optimized plan does not, and no duplicate-affecting "
                   "rewrite with evidence was recorded",
                   input.optimized->ToString());
    }
  }
}

}  // namespace verify
}  // namespace uniqopt
