#include "expr/expr.h"

#include <algorithm>

#include "common/logging.h"

namespace uniqopt {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->type_ = v.type();
  e->nullable_ = v.is_null();
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(size_t index, std::string display_name, TypeId type,
                        bool nullable) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->index_ = index;
  e->name_ = std::move(display_name);
  e->type_ = type;
  e->nullable_ = nullable;
  return e;
}

ExprPtr Expr::HostVar(size_t index, std::string name, TypeId type) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kHostVar;
  e->index_ = index;
  e->name_ = std::move(name);
  e->type_ = type;
  e->nullable_ = true;  // Host variable values are unknown until runtime.
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kComparison;
  e->op_ = op;
  e->nullable_ = left->nullable() || right->nullable();
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  std::vector<ExprPtr> flat;
  for (ExprPtr& c : children) {
    if (c->kind() == ExprKind::kAnd) {
      for (const ExprPtr& g : c->children()) flat.push_back(g);
    } else if (c->IsTrueLiteral()) {
      // drop neutral element
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return TrueLiteral();
  if (flat.size() == 1) return flat[0];
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAnd;
  e->type_ = TypeId::kBoolean;
  e->nullable_ = std::any_of(flat.begin(), flat.end(),
                             [](const ExprPtr& c) { return c->nullable(); });
  e->children_ = std::move(flat);
  return e;
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  std::vector<ExprPtr> flat;
  for (ExprPtr& c : children) {
    if (c->kind() == ExprKind::kOr) {
      for (const ExprPtr& g : c->children()) flat.push_back(g);
    } else if (c->IsFalseLiteral()) {
      // drop neutral element
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return FalseLiteral();
  if (flat.size() == 1) return flat[0];
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kOr;
  e->type_ = TypeId::kBoolean;
  e->nullable_ = std::any_of(flat.begin(), flat.end(),
                             [](const ExprPtr& c) { return c->nullable(); });
  e->children_ = std::move(flat);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kNot;
  e->type_ = TypeId::kBoolean;
  e->nullable_ = child->nullable();
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kIsNull;
  e->type_ = TypeId::kBoolean;
  e->nullable_ = false;  // IS NULL never yields UNKNOWN.
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::IsNotNull(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kIsNotNull;
  e->type_ = TypeId::kBoolean;
  e->nullable_ = false;
  e->children_ = {std::move(child)};
  return e;
}

bool Expr::IsTrueLiteral() const {
  return kind_ == ExprKind::kLiteral && type_ == TypeId::kBoolean &&
         !literal_.is_null() && literal_.AsBoolean();
}

bool Expr::IsFalseLiteral() const {
  return kind_ == ExprKind::kLiteral && type_ == TypeId::kBoolean &&
         !literal_.is_null() && !literal_.AsBoolean();
}

Value Expr::Evaluate(const Row& row, const std::vector<Value>& params) const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kColumnRef:
      return row.at(index_);
    case ExprKind::kHostVar:
      UNIQOPT_DCHECK_MSG(index_ < params.size(), "missing host variable");
      return params[index_];
    default: {
      Tribool t = EvaluatePredicate(row, params);
      if (t == Tribool::kUnknown) return Value::Null(TypeId::kBoolean);
      return Value::Boolean(t == Tribool::kTrue);
    }
  }
}

Tribool Expr::EvaluatePredicate(const Row& row,
                                const std::vector<Value>& params) const {
  switch (kind_) {
    case ExprKind::kLiteral: {
      UNIQOPT_DCHECK(type_ == TypeId::kBoolean);
      if (literal_.is_null()) return Tribool::kUnknown;
      return FromBool(literal_.AsBoolean());
    }
    case ExprKind::kColumnRef: {
      const Value& v = row.at(index_);
      if (v.is_null()) return Tribool::kUnknown;
      return FromBool(v.AsBoolean());
    }
    case ExprKind::kHostVar: {
      UNIQOPT_DCHECK_MSG(index_ < params.size(), "missing host variable");
      const Value& v = params[index_];
      if (v.is_null()) return Tribool::kUnknown;
      return FromBool(v.AsBoolean());
    }
    case ExprKind::kComparison: {
      Value l = children_[0]->Evaluate(row, params);
      Value r = children_[1]->Evaluate(row, params);
      if (l.is_null() || r.is_null()) return Tribool::kUnknown;
      return FromBool(CompareOpHolds(l.Compare(r), op_));
    }
    case ExprKind::kAnd: {
      Tribool acc = Tribool::kTrue;
      for (const ExprPtr& c : children_) {
        acc = And(acc, c->EvaluatePredicate(row, params));
        if (acc == Tribool::kFalse) return acc;
      }
      return acc;
    }
    case ExprKind::kOr: {
      Tribool acc = Tribool::kFalse;
      for (const ExprPtr& c : children_) {
        acc = Or(acc, c->EvaluatePredicate(row, params));
        if (acc == Tribool::kTrue) return acc;
      }
      return acc;
    }
    case ExprKind::kNot:
      return Not(children_[0]->EvaluatePredicate(row, params));
    case ExprKind::kIsNull:
      return FromBool(children_[0]->Evaluate(row, params).is_null());
    case ExprKind::kIsNotNull:
      return FromBool(!children_[0]->Evaluate(row, params).is_null());
  }
  return Tribool::kUnknown;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kColumnRef:
      return name_.empty() ? "#" + std::to_string(index_) : name_;
    case ExprKind::kHostVar:
      return ":" + name_;
    case ExprKind::kComparison:
      return children_[0]->ToString() + " " + CompareOpToString(op_) + " " +
             children_[1]->ToString();
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = kind_ == ExprKind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case ExprKind::kIsNull:
      return children_[0]->ToString() + " IS NULL";
    case ExprKind::kIsNotNull:
      return children_[0]->ToString() + " IS NOT NULL";
  }
  return "?";
}

void Expr::CollectColumns(std::vector<size_t>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->push_back(index_);
    return;
  }
  for (const ExprPtr& c : children_) c->CollectColumns(out);
}

size_t Expr::MaxColumnIndexPlusOne() const {
  std::vector<size_t> cols;
  CollectColumns(&cols);
  size_t max_plus_one = 0;
  for (size_t c : cols) max_plus_one = std::max(max_plus_one, c + 1);
  return max_plus_one;
}

size_t Expr::MaxHostVarIndexPlusOne() const {
  if (kind_ == ExprKind::kHostVar) return index_ + 1;
  size_t m = 0;
  for (const ExprPtr& c : children_) {
    m = std::max(m, c->MaxHostVarIndexPlusOne());
  }
  return m;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_.type() == other.literal_.type() &&
             literal_.NullSafeEquals(other.literal_);
    case ExprKind::kColumnRef:
    case ExprKind::kHostVar:
      return index_ == other.index_;
    case ExprKind::kComparison:
      if (op_ != other.op_) return false;
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

namespace {

ExprPtr Rebuild(const ExprPtr& expr, std::vector<ExprPtr> children) {
  switch (expr->kind()) {
    case ExprKind::kComparison:
      return Expr::Compare(expr->compare_op(), std::move(children[0]),
                           std::move(children[1]));
    case ExprKind::kAnd:
      return Expr::MakeAnd(std::move(children));
    case ExprKind::kOr:
      return Expr::MakeOr(std::move(children));
    case ExprKind::kNot:
      return Expr::MakeNot(std::move(children[0]));
    case ExprKind::kIsNull:
      return Expr::IsNull(std::move(children[0]));
    case ExprKind::kIsNotNull:
      return Expr::IsNotNull(std::move(children[0]));
    default:
      return expr;
  }
}

}  // namespace

ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<size_t>& mapping) {
  if (expr->kind() == ExprKind::kColumnRef) {
    UNIQOPT_DCHECK_MSG(expr->column_index() < mapping.size(),
                       "unmapped column in RemapColumns");
    return Expr::ColumnRef(mapping[expr->column_index()],
                           expr->display_name(), expr->value_type(),
                           expr->nullable());
  }
  if (expr->num_children() == 0) return expr;
  std::vector<ExprPtr> children;
  children.reserve(expr->num_children());
  for (const ExprPtr& c : expr->children()) {
    children.push_back(RemapColumns(c, mapping));
  }
  return Rebuild(expr, std::move(children));
}

ExprPtr ShiftColumns(const ExprPtr& expr, size_t offset) {
  if (expr->kind() == ExprKind::kColumnRef) {
    return Expr::ColumnRef(expr->column_index() + offset,
                           expr->display_name(), expr->value_type(),
                           expr->nullable());
  }
  if (expr->num_children() == 0) return expr;
  std::vector<ExprPtr> children;
  children.reserve(expr->num_children());
  for (const ExprPtr& c : expr->children()) {
    children.push_back(ShiftColumns(c, offset));
  }
  return Rebuild(expr, std::move(children));
}

ExprPtr TrueLiteral() { return Expr::Literal(Value::Boolean(true)); }
ExprPtr FalseLiteral() { return Expr::Literal(Value::Boolean(false)); }

}  // namespace uniqopt
