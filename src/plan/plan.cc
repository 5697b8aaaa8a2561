#include "plan/plan.h"

#include "common/logging.h"

namespace uniqopt {

std::string PlanNode::ToString() const {
  std::string out;
  AppendTo(&out, 0);
  return out;
}

void PlanNode::Indent(std::string* out, int indent) {
  for (int i = 0; i < indent; ++i) *out += "  ";
}

PlanPtr GetNode::Make(const TableDef* table, std::string alias) {
  UNIQOPT_DCHECK(table != nullptr);
  Schema schema = table->schema().WithQualifier(alias);
  return PlanPtr(new GetNode(table, std::move(alias), std::move(schema)));
}

const PlanPtr& GetNode::child(size_t) const {
  static const PlanPtr kNull;
  UNIQOPT_DCHECK_MSG(false, "GetNode has no children");
  return kNull;
}

void GetNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += "Get " + table_->name();
  if (alias_ != table_->name()) *out += " AS " + alias_;
  *out += "\n";
}

PlanPtr SelectNode::Make(PlanPtr input, ExprPtr predicate) {
  UNIQOPT_DCHECK(input != nullptr && predicate != nullptr);
  Schema schema = input->schema();
  return PlanPtr(
      new SelectNode(std::move(input), std::move(predicate), std::move(schema)));
}

void SelectNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += "Select [" + predicate_->ToString() + "]\n";
  input_->AppendTo(out, indent + 1);
}

PlanPtr ProjectNode::Make(PlanPtr input, DuplicateMode mode,
                          std::vector<size_t> columns, const Schema* names) {
  UNIQOPT_DCHECK(input != nullptr);
  Schema schema = input->schema().Project(columns);
  if (names != nullptr) {
    UNIQOPT_DCHECK(names->num_columns() == columns.size());
    std::vector<Column> named = schema.columns();
    for (size_t i = 0; i < named.size(); ++i) {
      named[i].qualifier = names->column(i).qualifier;
      named[i].name = names->column(i).name;
    }
    schema = Schema(std::move(named));
  }
  return PlanPtr(new ProjectNode(std::move(input), mode, std::move(columns),
                                 std::move(schema)));
}

void ProjectNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += mode_ == DuplicateMode::kDist ? "Project DISTINCT [" : "Project [";
  const Schema& s = schema();
  for (size_t i = 0; i < s.num_columns(); ++i) {
    if (i > 0) *out += ", ";
    *out += s.column(i).QualifiedName();
  }
  *out += "]\n";
  input_->AppendTo(out, indent + 1);
}

PlanPtr ProductNode::Make(PlanPtr left, PlanPtr right) {
  UNIQOPT_DCHECK(left != nullptr && right != nullptr);
  Schema schema = Schema::Concat(left->schema(), right->schema());
  return PlanPtr(
      new ProductNode(std::move(left), std::move(right), std::move(schema)));
}

void ProductNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += "Product\n";
  left_->AppendTo(out, indent + 1);
  right_->AppendTo(out, indent + 1);
}

PlanPtr ExistsNode::Make(PlanPtr outer, PlanPtr sub, ExprPtr correlation,
                         bool negated) {
  UNIQOPT_DCHECK(outer != nullptr && sub != nullptr && correlation != nullptr);
  Schema schema = outer->schema();
  return PlanPtr(new ExistsNode(std::move(outer), std::move(sub),
                                std::move(correlation), negated,
                                std::move(schema)));
}

void ExistsNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += negated_ ? "NotExists [" : "Exists [";
  *out += correlation_->ToString() + "]\n";
  outer_->AppendTo(out, indent + 1);
  sub_->AppendTo(out, indent + 1);
}

Result<PlanPtr> SetOpNode::Make(SetOpAlgebra op, DuplicateMode mode,
                                PlanPtr left, PlanPtr right) {
  UNIQOPT_DCHECK(left != nullptr && right != nullptr);
  if (!left->schema().UnionCompatible(right->schema())) {
    return Status::BindError(
        "set operation operands are not union-compatible: " +
        left->schema().ToString() + " vs " + right->schema().ToString());
  }
  Schema schema = left->schema();
  // A column of the result can be NULL if either side's column can.
  std::vector<Column> cols = schema.columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    cols[i].nullable =
        cols[i].nullable || right->schema().column(i).nullable;
  }
  return PlanPtr(new SetOpNode(op, mode, std::move(left), std::move(right),
                               Schema(std::move(cols))));
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

TypeId AggregateNode::ResultType(AggFunc func, TypeId arg) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return TypeId::kInteger;
    case AggFunc::kAvg:
      return TypeId::kDouble;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg;
  }
  return arg;
}

PlanPtr AggregateNode::Make(PlanPtr input, std::vector<size_t> group_columns,
                            std::vector<AggregateItem> aggregates) {
  UNIQOPT_DCHECK(input != nullptr);
  std::vector<Column> cols;
  for (size_t g : group_columns) {
    cols.push_back(input->schema().column(g));
  }
  for (const AggregateItem& agg : aggregates) {
    Column c;
    c.qualifier = "";
    c.name = agg.name;
    TypeId arg = agg.func == AggFunc::kCountStar
                     ? TypeId::kInteger
                     : input->schema().column(agg.arg_column).type;
    c.type = ResultType(agg.func, arg);
    // COUNT is never NULL; other aggregates are NULL for all-NULL groups.
    c.nullable = agg.func != AggFunc::kCountStar && agg.func != AggFunc::kCount;
    cols.push_back(std::move(c));
  }
  return PlanPtr(new AggregateNode(std::move(input), std::move(group_columns),
                                   std::move(aggregates),
                                   Schema(std::move(cols))));
}

void AggregateNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += "Aggregate [";
  for (size_t i = 0; i < group_columns_.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += input_->schema().column(group_columns_[i]).QualifiedName();
  }
  *out += "][";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += aggregates_[i].name;
  }
  *out += "]\n";
  input_->AppendTo(out, indent + 1);
}

void SetOpNode::AppendTo(std::string* out, int indent) const {
  Indent(out, indent);
  *out += op_ == SetOpAlgebra::kIntersect ? "Intersect" : "Except";
  if (mode_ == DuplicateMode::kAll) *out += " ALL";
  *out += "\n";
  left_->AppendTo(out, indent + 1);
  right_->AppendTo(out, indent + 1);
}

}  // namespace uniqopt
