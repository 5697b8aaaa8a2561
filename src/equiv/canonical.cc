#include "equiv/canonical.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

namespace uniqopt {
namespace equiv {
namespace {

void AppendSorted(std::vector<std::string> parts, const char* joiner,
                  std::string* out) {
  std::sort(parts.begin(), parts.end());
  out->push_back('(');
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) *out += joiner;
    *out += parts[i];
  }
  out->push_back(')');
}

void FlattenKind(const ExprPtr& e, ExprKind kind, std::vector<ExprPtr>* out) {
  if (e->kind() == kind) {
    for (const ExprPtr& c : e->children()) FlattenKind(c, kind, out);
  } else {
    out->push_back(e);
  }
}

/// prefix + text + suffix, appended into one buffer. GCC 12 at -O3
/// misreports `"literal" + std::string&&` as an overlapping memcpy
/// (-Wrestrict), which -Werror turns into a Release build failure.
std::string Wrap(std::string_view prefix, std::string_view text,
                 std::string_view suffix = {}) {
  std::string out;
  out.reserve(prefix.size() + text.size() + suffix.size());
  out.append(prefix).append(text).append(suffix);
  return out;
}

}  // namespace

std::string CanonicalExprText(const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr->literal().ToString();
    case ExprKind::kColumnRef:
      return Wrap("#", std::to_string(expr->column_index()));
    case ExprKind::kHostVar:
      return Wrap(":", std::to_string(expr->host_var_index()));
    case ExprKind::kComparison: {
      std::string l = CanonicalExprText(expr->child(0));
      std::string r = CanonicalExprText(expr->child(1));
      CompareOp op = expr->compare_op();
      if (r < l) {
        std::swap(l, r);
        op = FlipCompareOp(op);
      }
      return "(" + l + " " + CompareOpToString(op) + " " + r + ")";
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> flat;
      FlattenKind(expr, expr->kind(), &flat);
      std::vector<std::string> parts;
      parts.reserve(flat.size());
      for (const ExprPtr& c : flat) parts.push_back(CanonicalExprText(c));
      std::string out;
      AppendSorted(std::move(parts),
                   expr->kind() == ExprKind::kAnd ? " AND " : " OR ", &out);
      return out;
    }
    case ExprKind::kNot:
      return Wrap("(NOT ", CanonicalExprText(expr->child(0)), ")");
    case ExprKind::kIsNull:
      return Wrap("(", CanonicalExprText(expr->child(0)), " IS NULL)");
    case ExprKind::kIsNotNull:
      return Wrap("(", CanonicalExprText(expr->child(0)), " IS NOT NULL)");
  }
  return "?";
}

std::vector<std::string> CanonicalConjunctSet(const ExprPtr& predicate) {
  std::vector<ExprPtr> flat;
  FlattenKind(predicate, ExprKind::kAnd, &flat);
  std::vector<std::string> out;
  for (const ExprPtr& c : flat) {
    if (c->IsTrueLiteral()) continue;
    out.push_back(CanonicalExprText(c));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string CanonicalPlanText(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kGet: {
      const auto* get = As<GetNode>(plan);
      return "get(" + get->table().name() + " " + get->alias() + ")";
    }
    case PlanKind::kSelect: {
      const auto* sel = As<SelectNode>(plan);
      std::string out = "select({";
      std::vector<std::string> conjuncts =
          CanonicalConjunctSet(sel->predicate());
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i) out += ",";
        out += conjuncts[i];
      }
      out += "}," + CanonicalPlanText(sel->input()) + ")";
      return out;
    }
    case PlanKind::kProject: {
      const auto* proj = As<ProjectNode>(plan);
      std::string out = proj->mode() == DuplicateMode::kDist
                            ? "project_dist(["
                            : "project_all([";
      for (size_t i = 0; i < proj->columns().size(); ++i) {
        if (i) out += ",";
        out += std::to_string(proj->columns()[i]);
      }
      out += "]," + CanonicalPlanText(proj->input()) + ")";
      return out;
    }
    case PlanKind::kProduct: {
      const auto* prod = As<ProductNode>(plan);
      return "product(" + CanonicalPlanText(prod->left()) + "," +
             CanonicalPlanText(prod->right()) + ")";
    }
    case PlanKind::kExists: {
      const auto* exists = As<ExistsNode>(plan);
      std::string out = exists->negated() ? "not_exists(" : "exists(";
      out += CanonicalExprText(exists->correlation()) + "," +
             CanonicalPlanText(exists->outer()) + "," +
             CanonicalPlanText(exists->sub()) + ")";
      return out;
    }
    case PlanKind::kSetOp: {
      const auto* setop = As<SetOpNode>(plan);
      std::string out =
          setop->op() == SetOpAlgebra::kIntersect ? "intersect" : "except";
      out += setop->mode() == DuplicateMode::kDist ? "_dist(" : "_all(";
      out += CanonicalPlanText(setop->left()) + "," +
             CanonicalPlanText(setop->right()) + ")";
      return out;
    }
    case PlanKind::kAggregate: {
      const auto* agg = As<AggregateNode>(plan);
      std::string out = "aggregate([";
      for (size_t i = 0; i < agg->group_columns().size(); ++i) {
        if (i) out += ",";
        out += std::to_string(agg->group_columns()[i]);
      }
      out += "],[";
      for (size_t i = 0; i < agg->aggregates().size(); ++i) {
        const AggregateItem& item = agg->aggregates()[i];
        if (i) out += ",";
        out += AggFuncToString(item.func);
        if (item.func != AggFunc::kCountStar) {
          out += Wrap("#", std::to_string(item.arg_column));
        }
      }
      out += "]," + CanonicalPlanText(agg->input()) + ")";
      return out;
    }
  }
  return "?";
}

bool CanonicallyEqualPlans(const PlanPtr& a, const PlanPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return CanonicalPlanText(a) == CanonicalPlanText(b);
}

bool CanonicallyEqualExprs(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return CanonicalExprText(a) == CanonicalExprText(b);
}

}  // namespace equiv
}  // namespace uniqopt
