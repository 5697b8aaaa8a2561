#include "analysis/implication.h"

#include <algorithm>

#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

/// Tightens `domain` with `col op constant`.
void Constrain(ValueDomain* domain, CompareOp op, const Value& constant) {
  auto tighten_min = [&](const Value& v, bool inclusive) {
    if (!domain->min.has_value() || v.Compare(*domain->min) > 0 ||
        (v.Compare(*domain->min) == 0 && !inclusive)) {
      domain->min = v;
      domain->min_inclusive = inclusive;
    }
  };
  auto tighten_max = [&](const Value& v, bool inclusive) {
    if (!domain->max.has_value() || v.Compare(*domain->max) < 0 ||
        (v.Compare(*domain->max) == 0 && !inclusive)) {
      domain->max = v;
      domain->max_inclusive = inclusive;
    }
  };
  switch (op) {
    case CompareOp::kEq:
      tighten_min(constant, true);
      tighten_max(constant, true);
      break;
    case CompareOp::kGe:
      tighten_min(constant, true);
      break;
    case CompareOp::kGt:
      tighten_min(constant, false);
      break;
    case CompareOp::kLe:
      tighten_max(constant, true);
      break;
    case CompareOp::kLt:
      tighten_max(constant, false);
      break;
    case CompareOp::kNe:
      break;  // not representable in an interval; ignore (sound)
  }
}

/// Is `v` inside the interval part of `domain`?
bool InsideInterval(const ValueDomain& domain, const Value& v) {
  if (domain.min.has_value()) {
    int c = v.Compare(*domain.min);
    if (c < 0 || (c == 0 && !domain.min_inclusive)) return false;
  }
  if (domain.max.has_value()) {
    int c = v.Compare(*domain.max);
    if (c > 0 || (c == 0 && !domain.max_inclusive)) return false;
  }
  return true;
}

}  // namespace

ColumnDomains ColumnDomains::FromTable(const TableDef& table) {
  ColumnDomains out;
  // First pass: interval constraints from every CHECK conjunct.
  for (const CheckConstraint& check : table.checks()) {
    for (const ExprPtr& conj : FlattenAnd(check.predicate)) {
      size_t col = 0;
      CompareOp op = CompareOp::kEq;
      Value constant;
      if (MatchColumnConstant(conj, &col, &op, &constant)) {
        Constrain(&out.domains_[col], op, constant);
        continue;
      }
      std::vector<Value> values;
      if (MatchColumnInList(conj, &col, &values)) {
        ValueDomain& d = out.domains_[col];
        if (d.values.has_value()) {
          // Intersect with the existing finite set.
          std::vector<Value> kept;
          for (const Value& v : *d.values) {
            for (const Value& w : values) {
              if (v.Compare(w) == 0) {
                kept.push_back(v);
                break;
              }
            }
          }
          d.values = std::move(kept);
        } else {
          d.values = std::move(values);
        }
      }
    }
  }
  // Second pass: drop finite values outside the interval.
  for (auto& [col, d] : out.domains_) {
    if (!d.values.has_value()) continue;
    std::vector<Value> kept;
    for (const Value& v : *d.values) {
      if (InsideInterval(d, v)) kept.push_back(v);
    }
    d.values = std::move(kept);
  }
  return out;
}

const ValueDomain& ColumnDomains::domain(size_t ordinal) const {
  static const ValueDomain* kUnconstrained = new ValueDomain();
  auto it = domains_.find(ordinal);
  return it == domains_.end() ? *kUnconstrained : it->second;
}

AtomVerdict TestAtomAgainstDomain(const ValueDomain& domain, CompareOp op,
                                  const Value& constant) {
  if (domain.Unconstrained()) return AtomVerdict::kUnknown;
  if (domain.values.has_value()) {
    // Finite domain: evaluate exhaustively.
    bool any_true = false;
    bool any_false = false;
    for (const Value& v : *domain.values) {
      (CompareOpHolds(v.Compare(constant), op) ? any_true : any_false) = true;
    }
    if (!any_false) {
      // Vacuously implied for an empty domain too (no non-NULL value
      // can exist, so any non-NULL row is impossible anyway).
      return domain.values->empty() ? AtomVerdict::kContradicted
                                    : AtomVerdict::kImpliedForNonNull;
    }
    if (!any_true) return AtomVerdict::kContradicted;
    return AtomVerdict::kUnknown;
  }
  // Interval domain. Decide per operator by comparing bounds.
  const std::optional<Value>& lo = domain.min;
  const std::optional<Value>& hi = domain.max;
  auto lo_cmp = [&] { return lo->Compare(constant); };
  auto hi_cmp = [&] { return hi->Compare(constant); };
  switch (op) {
    case CompareOp::kGe:
      if (lo.has_value() && lo_cmp() >= 0) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (hi.has_value() &&
          (hi_cmp() < 0 || (hi_cmp() == 0 && !domain.max_inclusive))) {
        return AtomVerdict::kContradicted;
      }
      return AtomVerdict::kUnknown;
    case CompareOp::kGt:
      if (lo.has_value() &&
          (lo_cmp() > 0 || (lo_cmp() == 0 && !domain.min_inclusive))) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (hi.has_value() && hi_cmp() <= 0) return AtomVerdict::kContradicted;
      return AtomVerdict::kUnknown;
    case CompareOp::kLe:
      if (hi.has_value() && hi_cmp() <= 0) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (lo.has_value() &&
          (lo_cmp() > 0 || (lo_cmp() == 0 && !domain.min_inclusive))) {
        return AtomVerdict::kContradicted;
      }
      return AtomVerdict::kUnknown;
    case CompareOp::kLt:
      if (hi.has_value() &&
          (hi_cmp() < 0 || (hi_cmp() == 0 && !domain.max_inclusive))) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (lo.has_value() && lo_cmp() >= 0) return AtomVerdict::kContradicted;
      return AtomVerdict::kUnknown;
    case CompareOp::kEq:
      // Implied only when the interval pins a single value.
      if (lo.has_value() && hi.has_value() && domain.min_inclusive &&
          domain.max_inclusive && lo->Compare(*hi) == 0 &&
          lo->Compare(constant) == 0) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (!InsideInterval(domain, constant)) {
        return AtomVerdict::kContradicted;
      }
      return AtomVerdict::kUnknown;
    case CompareOp::kNe:
      if (!InsideInterval(domain, constant)) {
        return AtomVerdict::kImpliedForNonNull;
      }
      if (lo.has_value() && hi.has_value() && domain.min_inclusive &&
          domain.max_inclusive && lo->Compare(*hi) == 0 &&
          lo->Compare(constant) == 0) {
        return AtomVerdict::kContradicted;
      }
      return AtomVerdict::kUnknown;
  }
  return AtomVerdict::kUnknown;
}

bool MatchColumnConstant(const ExprPtr& expr, size_t* column, CompareOp* op,
                         Value* constant) {
  if (expr->kind() != ExprKind::kComparison) return false;
  const ExprPtr& l = expr->child(0);
  const ExprPtr& r = expr->child(1);
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral &&
      !r->literal().is_null()) {
    *column = l->column_index();
    *op = expr->compare_op();
    *constant = r->literal();
    return true;
  }
  if (r->kind() == ExprKind::kColumnRef && l->kind() == ExprKind::kLiteral &&
      !l->literal().is_null()) {
    *column = r->column_index();
    *op = FlipCompareOp(expr->compare_op());
    *constant = l->literal();
    return true;
  }
  return false;
}

bool MatchColumnInList(const ExprPtr& expr, size_t* column,
                       std::vector<Value>* values) {
  if (expr->kind() != ExprKind::kOr) return false;
  std::optional<size_t> col;
  std::vector<Value> out;
  for (const ExprPtr& disjunct : expr->children()) {
    size_t c = 0;
    CompareOp op = CompareOp::kEq;
    Value v;
    if (!MatchColumnConstant(disjunct, &c, &op, &v) || op != CompareOp::kEq) {
      return false;
    }
    if (col.has_value() && *col != c) return false;
    col = c;
    out.push_back(std::move(v));
  }
  if (!col.has_value()) return false;
  *column = *col;
  *values = std::move(out);
  return true;
}

}  // namespace uniqopt
