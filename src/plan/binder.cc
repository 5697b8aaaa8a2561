#include "plan/binder.h"

#include <map>

#include "common/string_util.h"
#include "expr/normalize.h"
#include "parser/parser.h"

namespace uniqopt {

Result<size_t> BoundQuery::HostVarSlot(const std::string& name) const {
  for (size_t i = 0; i < host_vars.size(); ++i) {
    if (EqualsIgnoreCase(host_vars[i].name, name)) return i;
  }
  return Status::NotFound("host variable not bound: " + name);
}

namespace {

/// Resolves a column reference against a scope. The scope is a schema
/// whose columns at index >= inner_start belong to the innermost query
/// block; inner columns shadow outer ones per SQL scoping.
Result<size_t> ResolveScoped(const Schema& schema, size_t inner_start,
                             const std::string& qualifier,
                             const std::string& name) {
  auto try_range = [&](size_t begin, size_t end) -> Result<size_t> {
    std::optional<size_t> found;
    for (size_t i = begin; i < end; ++i) {
      const Column& c = schema.column(i);
      if (!EqualsIgnoreCase(c.name, name)) continue;
      if (!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier)) {
        continue;
      }
      if (found.has_value()) {
        return Status::BindError("ambiguous column reference: " +
                                 (qualifier.empty() ? name
                                                    : qualifier + "." + name));
      }
      found = i;
    }
    if (!found.has_value()) {
      return Status::NotFound("column not found: " + name);
    }
    return *found;
  };
  Result<size_t> inner = try_range(inner_start, schema.num_columns());
  if (inner.ok() || inner.status().code() == StatusCode::kBindError) {
    return inner;
  }
  if (inner_start > 0) {
    Result<size_t> outer = try_range(0, inner_start);
    if (outer.ok() || outer.status().code() == StatusCode::kBindError) {
      return outer;
    }
  }
  std::string full = qualifier.empty() ? name : qualifier + "." + name;
  return Status::BindError("column not found: " + full);
}

}  // namespace

class Binder::Impl {
 public:
  Impl(const Catalog* catalog, std::vector<HostVariable>* host_vars)
      : catalog_(catalog), host_vars_(host_vars) {}

  /// Binds a spec. `outer` is the schema of the enclosing block's FROM
  /// product (empty schema for top-level specs).
  Result<PlanPtr> BindSpec(const QuerySpec& spec, const Schema& outer);

  /// Binds a spec as an existential subquery under `outer`: returns the
  /// inner plan and a correlation predicate over Concat(outer, inner).
  struct BoundSubquery {
    PlanPtr inner;
    ExprPtr correlation;
  };
  Result<BoundSubquery> BindSubquery(const QuerySpec& spec,
                                     const Schema& outer,
                                     const AstExpr* in_value);

  Result<ExprPtr> BindScalar(const AstExpr& e, const Schema& scope,
                             size_t inner_start);

 private:
  Result<PlanPtr> BindFrom(const std::vector<TableRef>& from, Schema* schema);
  Result<PlanPtr> BindGroupedSpec(const QuerySpec& spec, PlanPtr plan,
                                  const Schema& from_schema);
  Result<ExprPtr> BindComparison(const AstExpr& e, const Schema& scope,
                                 size_t inner_start);
  Result<ExprPtr> CoerceOperands(CompareOp op, ExprPtr left, ExprPtr right,
                                 size_t offset);
  ExprPtr WithHostVarType(const ExprPtr& hv, TypeId type);

  const Catalog* catalog_;
  std::vector<HostVariable>* host_vars_;
};

Result<PlanPtr> Binder::Impl::BindFrom(const std::vector<TableRef>& from,
                                       Schema* schema) {
  if (from.empty()) {
    return Status::BindError("FROM clause must name at least one table");
  }
  // Duplicate correlation names are ambiguous.
  for (size_t i = 0; i < from.size(); ++i) {
    for (size_t j = i + 1; j < from.size(); ++j) {
      if (EqualsIgnoreCase(from[i].correlation_name(),
                           from[j].correlation_name())) {
        return Status::BindError("duplicate correlation name in FROM: " +
                                 from[i].correlation_name());
      }
    }
  }
  PlanPtr plan;
  for (const TableRef& ref : from) {
    UNIQOPT_ASSIGN_OR_RETURN(const TableDef* def,
                             catalog_->GetTable(ref.table_name));
    PlanPtr get = GetNode::Make(def, ref.correlation_name());
    plan = plan == nullptr ? get : ProductNode::Make(plan, get);
  }
  *schema = plan->schema();
  return plan;
}

ExprPtr Binder::Impl::WithHostVarType(const ExprPtr& hv, TypeId type) {
  size_t slot = hv->host_var_index();
  (*host_vars_)[slot].type = type;
  (*host_vars_)[slot].type_known = true;
  return Expr::HostVar(slot, hv->display_name(), type);
}

Result<ExprPtr> Binder::Impl::CoerceOperands(CompareOp op, ExprPtr left,
                                             ExprPtr right, size_t offset) {
  auto type_is_soft = [](const ExprPtr& e) {
    // Host variables and bare NULL literals adopt the other side's type.
    return e->kind() == ExprKind::kHostVar ||
           (e->kind() == ExprKind::kLiteral && e->literal().is_null());
  };
  bool left_soft = type_is_soft(left);
  bool right_soft = type_is_soft(right);
  if (left_soft && !right_soft) {
    if (left->kind() == ExprKind::kHostVar) {
      left = WithHostVarType(left, right->value_type());
    } else {
      left = Expr::Literal(Value::Null(right->value_type()));
    }
  } else if (right_soft && !left_soft) {
    if (right->kind() == ExprKind::kHostVar) {
      right = WithHostVarType(right, left->value_type());
    } else {
      right = Expr::Literal(Value::Null(left->value_type()));
    }
  }
  if (!Value::Comparable(left->value_type(), right->value_type())) {
    return Status::BindError(
        "type mismatch at offset " + std::to_string(offset) + ": " +
        std::string(TypeIdToString(left->value_type())) + " vs " +
        std::string(TypeIdToString(right->value_type())));
  }
  return Expr::Compare(op, std::move(left), std::move(right));
}

Result<ExprPtr> Binder::Impl::BindComparison(const AstExpr& e,
                                             const Schema& scope,
                                             size_t inner_start) {
  UNIQOPT_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*e.children[0], scope,
                                                 inner_start));
  UNIQOPT_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*e.children[1], scope,
                                                 inner_start));
  return CoerceOperands(e.op, std::move(l), std::move(r), e.offset);
}

Result<ExprPtr> Binder::Impl::BindScalar(const AstExpr& e, const Schema& scope,
                                         size_t inner_start) {
  switch (e.kind) {
    case AstExprKind::kLiteral:
      return Expr::Literal(e.literal);
    case AstExprKind::kColumnRef: {
      UNIQOPT_ASSIGN_OR_RETURN(
          size_t idx, ResolveScoped(scope, inner_start, e.qualifier, e.name));
      const Column& c = scope.column(idx);
      return Expr::ColumnRef(idx, c.QualifiedName(), c.type, c.nullable);
    }
    case AstExprKind::kHostVar: {
      for (size_t i = 0; i < host_vars_->size(); ++i) {
        if (EqualsIgnoreCase((*host_vars_)[i].name, e.name)) {
          return Expr::HostVar(i, (*host_vars_)[i].name,
                               (*host_vars_)[i].type);
        }
      }
      HostVariable hv;
      hv.name = e.name;
      host_vars_->push_back(hv);
      return Expr::HostVar(host_vars_->size() - 1, e.name, hv.type);
    }
    case AstExprKind::kCompare:
      return BindComparison(e, scope, inner_start);
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      std::vector<ExprPtr> children;
      children.reserve(e.children.size());
      for (const AstExprPtr& c : e.children) {
        UNIQOPT_ASSIGN_OR_RETURN(ExprPtr bc,
                                 BindScalar(*c, scope, inner_start));
        children.push_back(std::move(bc));
      }
      return e.kind == AstExprKind::kAnd ? Expr::MakeAnd(std::move(children))
                                         : Expr::MakeOr(std::move(children));
    }
    case AstExprKind::kNot: {
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr c,
                               BindScalar(*e.children[0], scope, inner_start));
      return Expr::MakeNot(std::move(c));
    }
    case AstExprKind::kIsNull: {
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr c,
                               BindScalar(*e.children[0], scope, inner_start));
      return e.negated ? Expr::IsNotNull(std::move(c))
                       : Expr::IsNull(std::move(c));
    }
    case AstExprKind::kBetween: {
      // x BETWEEN a AND b  ⇒  x >= a AND x <= b (3VL-equivalent).
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr x,
                               BindScalar(*e.children[0], scope, inner_start));
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr lo,
                               BindScalar(*e.children[1], scope, inner_start));
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr hi,
                               BindScalar(*e.children[2], scope, inner_start));
      UNIQOPT_ASSIGN_OR_RETURN(
          ExprPtr ge, CoerceOperands(e.negated ? CompareOp::kLt : CompareOp::kGe,
                                     x, std::move(lo), e.offset));
      UNIQOPT_ASSIGN_OR_RETURN(
          ExprPtr le, CoerceOperands(e.negated ? CompareOp::kGt : CompareOp::kLe,
                                     std::move(x), std::move(hi), e.offset));
      return e.negated ? Expr::MakeOr({std::move(ge), std::move(le)})
                       : Expr::MakeAnd({std::move(ge), std::move(le)});
    }
    case AstExprKind::kInList: {
      // x IN (v1, ..) ⇒ x = v1 OR ...; NOT IN ⇒ x <> v1 AND ... .
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr x,
                               BindScalar(*e.children[0], scope, inner_start));
      std::vector<ExprPtr> terms;
      for (size_t i = 1; i < e.children.size(); ++i) {
        UNIQOPT_ASSIGN_OR_RETURN(
            ExprPtr v, BindScalar(*e.children[i], scope, inner_start));
        UNIQOPT_ASSIGN_OR_RETURN(
            ExprPtr cmp,
            CoerceOperands(e.negated ? CompareOp::kNe : CompareOp::kEq, x,
                           std::move(v), e.offset));
        terms.push_back(std::move(cmp));
      }
      return e.negated ? Expr::MakeAnd(std::move(terms))
                       : Expr::MakeOr(std::move(terms));
    }
    case AstExprKind::kExists:
    case AstExprKind::kInSubquery:
      return Status::Unsupported(
          "subquery predicates are supported only as top-level WHERE "
          "conjuncts");
    case AstExprKind::kAggregate:
      return Status::BindError(
          "aggregate functions are allowed only in the select list");
  }
  return Status::Internal("unhandled AST expression kind");
}

Result<Binder::Impl::BoundSubquery> Binder::Impl::BindSubquery(
    const QuerySpec& spec, const Schema& outer, const AstExpr* in_value) {
  if (spec.distinct) {
    // EXISTS(SELECT DISTINCT ...) ≡ EXISTS(SELECT ...); accept and ignore.
  }
  Schema inner_schema;
  UNIQOPT_ASSIGN_OR_RETURN(PlanPtr inner, BindFrom(spec.from, &inner_schema));
  Schema combined = Schema::Concat(outer, inner_schema);
  size_t outer_width = outer.num_columns();

  std::vector<ExprPtr> inner_only;   // pushed into the inner plan
  std::vector<ExprPtr> correlation;  // stay on the Exists node

  if (spec.where != nullptr) {
    // Bind conjunct by conjunct so inner-only conditions can be pushed.
    std::vector<const AstExpr*> conjuncts;
    if (spec.where->kind == AstExprKind::kAnd) {
      for (const AstExprPtr& c : spec.where->children) {
        conjuncts.push_back(c.get());
      }
    } else {
      conjuncts.push_back(spec.where.get());
    }
    for (const AstExpr* c : conjuncts) {
      if (c->kind == AstExprKind::kExists ||
          c->kind == AstExprKind::kInSubquery) {
        return Status::Unsupported(
            "nested subqueries inside a subquery are outside the supported "
            "subset");
      }
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr bound,
                               BindScalar(*c, combined, outer_width));
      size_t min_col = combined.num_columns();
      std::vector<size_t> cols;
      bound->CollectColumns(&cols);
      for (size_t col : cols) min_col = std::min(min_col, col);
      if (cols.empty() || min_col >= outer_width) {
        // References only inner columns (or none): remap into inner frame.
        std::vector<size_t> mapping(combined.num_columns(), 0);
        for (size_t i = outer_width; i < combined.num_columns(); ++i) {
          mapping[i] = i - outer_width;
        }
        inner_only.push_back(RemapColumns(bound, mapping));
      } else {
        correlation.push_back(std::move(bound));
      }
    }
  }

  // IN-subquery: equate the outer value with the subquery's single
  // projected column.
  if (in_value != nullptr) {
    if (spec.select_list.size() != 1 || spec.select_list[0].star) {
      return Status::BindError(
          "IN subquery must project exactly one column");
    }
    UNIQOPT_ASSIGN_OR_RETURN(ExprPtr lhs,
                             BindScalar(*in_value, combined, /*inner_start=*/0));
    UNIQOPT_ASSIGN_OR_RETURN(
        ExprPtr rhs,
        BindScalar(*spec.select_list[0].expr, combined, outer_width));
    UNIQOPT_ASSIGN_OR_RETURN(
        ExprPtr eq,
        CoerceOperands(CompareOp::kEq, std::move(lhs), std::move(rhs), 0));
    correlation.push_back(std::move(eq));
  }

  if (!inner_only.empty()) {
    inner = SelectNode::Make(inner, Expr::MakeAnd(std::move(inner_only)));
  }
  BoundSubquery out;
  out.inner = std::move(inner);
  out.correlation = Expr::MakeAnd(std::move(correlation));
  return out;
}

Result<PlanPtr> Binder::Impl::BindSpec(const QuerySpec& spec,
                                       const Schema& outer) {
  if (outer.num_columns() != 0) {
    return Status::Internal("BindSpec called with non-empty outer scope");
  }
  Schema from_schema;
  UNIQOPT_ASSIGN_OR_RETURN(PlanPtr plan, BindFrom(spec.from, &from_schema));

  // Partition WHERE into scalar conjuncts and subquery conjuncts.
  std::vector<ExprPtr> scalar;
  struct SubConjunct {
    PlanPtr inner;
    ExprPtr correlation;
    bool negated;
  };
  std::vector<SubConjunct> subs;
  if (spec.where != nullptr) {
    std::vector<const AstExpr*> conjuncts;
    if (spec.where->kind == AstExprKind::kAnd) {
      for (const AstExprPtr& c : spec.where->children) {
        conjuncts.push_back(c.get());
      }
    } else {
      conjuncts.push_back(spec.where.get());
    }
    for (const AstExpr* c : conjuncts) {
      if (c->kind == AstExprKind::kExists) {
        UNIQOPT_ASSIGN_OR_RETURN(
            BoundSubquery bs,
            BindSubquery(*c->subquery, from_schema, nullptr));
        subs.push_back({std::move(bs.inner), std::move(bs.correlation),
                        c->negated});
        continue;
      }
      if (c->kind == AstExprKind::kInSubquery) {
        if (c->negated) {
          return Status::Unsupported(
              "NOT IN (subquery) has non-trivial NULL semantics and is "
              "outside the supported subset; use NOT EXISTS");
        }
        UNIQOPT_ASSIGN_OR_RETURN(
            BoundSubquery bs,
            BindSubquery(*c->subquery, from_schema, c->children[0].get()));
        subs.push_back(
            {std::move(bs.inner), std::move(bs.correlation), false});
        continue;
      }
      UNIQOPT_ASSIGN_OR_RETURN(ExprPtr bound,
                               BindScalar(*c, from_schema, /*inner_start=*/0));
      scalar.push_back(std::move(bound));
    }
  }
  if (!scalar.empty()) {
    plan = SelectNode::Make(plan, Expr::MakeAnd(std::move(scalar)));
  }
  for (SubConjunct& s : subs) {
    plan = ExistsNode::Make(plan, std::move(s.inner), std::move(s.correlation),
                            s.negated);
  }

  // Grouped queries (§7 extension): build an AggregateNode, then
  // project its output in select-list order.
  bool has_aggregate = false;
  for (const SelectItem& item : spec.select_list) {
    has_aggregate = has_aggregate ||
                    (!item.star &&
                     item.expr->kind == AstExprKind::kAggregate);
  }
  if (!spec.group_by.empty() || has_aggregate) {
    return BindGroupedSpec(spec, std::move(plan), from_schema);
  }

  // Select list → projection column indexes over the FROM schema.
  std::vector<size_t> columns;
  for (const SelectItem& item : spec.select_list) {
    if (item.star) {
      for (size_t i = 0; i < from_schema.num_columns(); ++i) {
        if (item.star_qualifier.empty() ||
            EqualsIgnoreCase(from_schema.column(i).qualifier,
                             item.star_qualifier)) {
          columns.push_back(i);
        }
      }
      if (!item.star_qualifier.empty() && columns.empty()) {
        return Status::BindError("unknown qualifier in select list: " +
                                 item.star_qualifier + ".*");
      }
      continue;
    }
    if (item.expr->kind != AstExprKind::kColumnRef) {
      return Status::Unsupported(
          "select list supports only column references and * in this "
          "subset");
    }
    UNIQOPT_ASSIGN_OR_RETURN(
        size_t idx, ResolveScoped(from_schema, 0, item.expr->qualifier,
                                  item.expr->name));
    columns.push_back(idx);
  }
  return ProjectNode::Make(
      plan, spec.distinct ? DuplicateMode::kDist : DuplicateMode::kAll,
      std::move(columns));
}

Result<PlanPtr> Binder::Impl::BindGroupedSpec(const QuerySpec& spec,
                                              PlanPtr plan,
                                              const Schema& from_schema) {
  // Group columns (indexes into the FROM schema).
  std::vector<size_t> group_cols;
  for (const AstExprPtr& g : spec.group_by) {
    UNIQOPT_ASSIGN_OR_RETURN(
        size_t idx, ResolveScoped(from_schema, 0, g->qualifier, g->name));
    group_cols.push_back(idx);
  }
  // Select list: each item is either a grouped column or an aggregate.
  std::vector<AggregateItem> aggregates;
  struct OutputRef {
    bool is_group = false;
    size_t index = 0;  // group position or aggregate position
  };
  std::vector<OutputRef> outputs;
  for (const SelectItem& item : spec.select_list) {
    if (item.star) {
      return Status::BindError(
          "'*' cannot appear in the select list of a grouped query");
    }
    if (item.expr->kind == AstExprKind::kColumnRef) {
      UNIQOPT_ASSIGN_OR_RETURN(
          size_t idx, ResolveScoped(from_schema, 0, item.expr->qualifier,
                                    item.expr->name));
      bool found = false;
      for (size_t g = 0; g < group_cols.size() && !found; ++g) {
        if (group_cols[g] == idx) {
          outputs.push_back({true, g});
          found = true;
        }
      }
      if (!found) {
        return Status::BindError("column " + item.expr->ToString() +
                                 " must appear in GROUP BY or inside an "
                                 "aggregate");
      }
      continue;
    }
    if (item.expr->kind != AstExprKind::kAggregate) {
      return Status::Unsupported(
          "grouped select lists support columns and aggregates only");
    }
    AggregateItem agg;
    switch (item.expr->agg_func) {
      case AstAggFunc::kCountStar:
        agg.func = AggFunc::kCountStar;
        break;
      case AstAggFunc::kCount:
        agg.func = AggFunc::kCount;
        break;
      case AstAggFunc::kSum:
        agg.func = AggFunc::kSum;
        break;
      case AstAggFunc::kMin:
        agg.func = AggFunc::kMin;
        break;
      case AstAggFunc::kMax:
        agg.func = AggFunc::kMax;
        break;
      case AstAggFunc::kAvg:
        agg.func = AggFunc::kAvg;
        break;
    }
    if (agg.func != AggFunc::kCountStar) {
      const AstExpr& arg = *item.expr->children[0];
      UNIQOPT_ASSIGN_OR_RETURN(
          agg.arg_column,
          ResolveScoped(from_schema, 0, arg.qualifier, arg.name));
      const Column& c = from_schema.column(agg.arg_column);
      if (agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg) {
        if (c.type != TypeId::kInteger && c.type != TypeId::kDouble) {
          return Status::BindError("SUM/AVG require a numeric column: " +
                                   c.QualifiedName());
        }
      }
    }
    agg.name = item.expr->ToString();
    outputs.push_back({false, aggregates.size()});
    aggregates.push_back(std::move(agg));
  }

  plan = AggregateNode::Make(std::move(plan), group_cols,
                             std::move(aggregates));
  // Final projection: select-list order over (group cols ++ aggregates).
  std::vector<size_t> columns;
  for (const OutputRef& ref : outputs) {
    columns.push_back(ref.is_group ? ref.index
                                   : group_cols.size() + ref.index);
  }
  return ProjectNode::Make(
      std::move(plan),
      spec.distinct ? DuplicateMode::kDist : DuplicateMode::kAll,
      std::move(columns));
}

Result<BoundQuery> Binder::Bind(const Query& query) {
  BoundQuery out;
  Impl impl(catalog_, &out.host_vars);
  Schema empty;
  UNIQOPT_ASSIGN_OR_RETURN(PlanPtr plan, impl.BindSpec(*query.specs[0], empty));
  for (size_t i = 0; i < query.ops.size(); ++i) {
    UNIQOPT_ASSIGN_OR_RETURN(PlanPtr rhs,
                             impl.BindSpec(*query.specs[i + 1], empty));
    SetOpAlgebra alg = SetOpAlgebra::kIntersect;
    DuplicateMode mode = DuplicateMode::kDist;
    switch (query.ops[i]) {
      case SetOpKind::kIntersect:
        alg = SetOpAlgebra::kIntersect;
        mode = DuplicateMode::kDist;
        break;
      case SetOpKind::kIntersectAll:
        alg = SetOpAlgebra::kIntersect;
        mode = DuplicateMode::kAll;
        break;
      case SetOpKind::kExcept:
        alg = SetOpAlgebra::kExcept;
        mode = DuplicateMode::kDist;
        break;
      case SetOpKind::kExceptAll:
        alg = SetOpAlgebra::kExcept;
        mode = DuplicateMode::kAll;
        break;
    }
    UNIQOPT_ASSIGN_OR_RETURN(plan,
                             SetOpNode::Make(alg, mode, plan, std::move(rhs)));
  }
  out.plan = std::move(plan);
  return out;
}

Result<BoundQuery> Binder::BindSql(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(QueryPtr query, ParseQuery(sql));
  return Bind(*query);
}

Result<TableDef> BuildTableDef(const CreateTableStmt& stmt) {
  if (stmt.columns.empty()) {
    return Status::BindError("table must have at least one column: " +
                             stmt.table_name);
  }
  std::vector<Column> cols;
  for (const AstColumnDef& c : stmt.columns) {
    for (const Column& existing : cols) {
      if (EqualsIgnoreCase(existing.name, c.name)) {
        return Status::BindError("duplicate column name: " + c.name);
      }
    }
    Column col;
    col.qualifier = "";
    col.name = c.name;
    col.type = c.type;
    col.nullable = !c.not_null;
    cols.push_back(std::move(col));
  }
  TableDef def(ToUpperAscii(stmt.table_name), Schema(std::move(cols)));
  if (!stmt.primary_key.empty()) {
    UNIQOPT_RETURN_NOT_OK(def.SetPrimaryKey(stmt.primary_key));
  }
  for (const std::vector<std::string>& uq : stmt.unique_keys) {
    UNIQOPT_RETURN_NOT_OK(def.AddUniqueKey(uq));
  }
  for (const AstForeignKey& fk : stmt.foreign_keys) {
    UNIQOPT_RETURN_NOT_OK(
        def.AddForeignKey(fk.columns, fk.ref_table, fk.ref_columns));
  }
  // Bind CHECK predicates against the table's own schema. CHECK binding
  // never touches the catalog, so a catalog-less Impl suffices.
  for (const AstCheck& check : stmt.checks) {
    std::vector<HostVariable> hv;
    Binder::Impl impl(nullptr, &hv);
    UNIQOPT_ASSIGN_OR_RETURN(
        ExprPtr bound, impl.BindScalar(*check.predicate, def.schema(), 0));
    if (!hv.empty()) {
      return Status::BindError(
          "CHECK constraints may not reference host variables");
    }
    CheckConstraint cc;
    cc.name = "check_" + std::to_string(def.checks().size());
    cc.predicate = std::move(bound);
    cc.sql_text = check.sql_text;
    def.AddCheck(std::move(cc));
  }
  return def;
}

Result<ExprPtr> BindTableScalar(const Catalog* catalog, const TableDef& table,
                                const AstExpr& expr,
                                std::vector<HostVariable>* host_vars) {
  // DML clauses may name columns bare or qualified by the table name,
  // so bind against the schema under the table's own qualifier.
  Schema scope = table.schema().WithQualifier(table.name());
  Binder::Impl impl(catalog, host_vars);
  return impl.BindScalar(expr, scope, /*inner_start=*/0);
}

}  // namespace uniqopt
