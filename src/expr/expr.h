#ifndef UNIQOPT_EXPR_EXPR_H_
#define UNIQOPT_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "types/row.h"
#include "types/tribool.h"
#include "types/value.h"

namespace uniqopt {

/// Node kinds for bound scalar/predicate expressions. The paper's SQL
/// subset has no arithmetic, so scalar leaves are literals, column
/// references, and host variables; everything else is boolean structure.
/// BETWEEN and IN-lists are desugared by the binder into comparisons and
/// disjunctions, which keeps the normalizer and analyzer minimal.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kHostVar,
  kComparison,
  kAnd,  ///< n-ary conjunction
  kOr,   ///< n-ary disjunction
  kNot,
  kIsNull,     ///< `x IS NULL`
  kIsNotNull,  ///< `x IS NOT NULL`
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);
CompareOp NegateCompareOp(CompareOp op);
/// Mirror: a < b  ⇔  b > a.
CompareOp FlipCompareOp(CompareOp op);

/// Does an ordering `c` (negative, zero or positive, as from
/// Value::Compare) satisfy `op`? Inline: filter loops call it per row.
inline bool CompareOpHolds(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// An immutable, shareable expression tree bound against a row schema:
/// column references hold positional indexes. Host variables hold slots
/// into the parameter vector supplied at evaluation time (the paper's
/// `h`, known only at execution).
class Expr {
 public:
  // -- Factories ----------------------------------------------------------
  static ExprPtr Literal(Value v);
  static ExprPtr ColumnRef(size_t index, std::string display_name,
                           TypeId type, bool nullable = true);
  static ExprPtr HostVar(size_t index, std::string name, TypeId type);
  static ExprPtr Compare(CompareOp op, ExprPtr left, ExprPtr right);
  /// Flattens nested ANDs; returns TRUE literal for empty input.
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  /// Flattens nested ORs; returns FALSE literal for empty input.
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr IsNull(ExprPtr child);
  static ExprPtr IsNotNull(ExprPtr child);

  // -- Accessors ----------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& literal() const { return literal_; }
  size_t column_index() const { return index_; }
  size_t host_var_index() const { return index_; }
  const std::string& display_name() const { return name_; }
  CompareOp compare_op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_.at(i); }
  size_t num_children() const { return children_.size(); }

  /// Static type of the expression value. Boolean for predicates.
  TypeId value_type() const { return type_; }
  /// Conservative nullability (predicates: can evaluate to UNKNOWN).
  bool nullable() const { return nullable_; }

  /// True for kLiteral TRUE / FALSE boolean constants.
  bool IsTrueLiteral() const;
  bool IsFalseLiteral() const;

  // -- Evaluation ---------------------------------------------------------
  /// Evaluates a scalar or predicate against `row`; `params[i]` supplies
  /// host variable i. Predicates yield Boolean values where NULL encodes
  /// UNKNOWN.
  Value Evaluate(const Row& row, const std::vector<Value>& params) const;

  /// Predicate evaluation in three-valued logic.
  Tribool EvaluatePredicate(const Row& row,
                            const std::vector<Value>& params) const;

  // -- Structure ----------------------------------------------------------
  /// SQL-ish rendering, e.g. `(S.SNO = P.SNO AND P.COLOR = 'RED')`.
  std::string ToString() const;

  /// Collects all column indexes referenced by the expression.
  void CollectColumns(std::vector<size_t>* out) const;
  /// Highest referenced column index + 1 (0 when no references).
  size_t MaxColumnIndexPlusOne() const;
  /// Number of distinct host variables referenced (max index + 1).
  size_t MaxHostVarIndexPlusOne() const;

  /// Structural equality (same shape, literals equal under `=!`).
  bool Equals(const Expr& other) const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  Value literal_;
  size_t index_ = 0;
  std::string name_;
  CompareOp op_ = CompareOp::kEq;
  std::vector<ExprPtr> children_;
  TypeId type_ = TypeId::kBoolean;
  bool nullable_ = true;
};

/// Rewrites column references through `mapping`: a reference to old index
/// i becomes a reference to mapping[i]. All referenced indexes must be
/// mapped.
ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<size_t>& mapping);

/// Adds `offset` to every column index (placing a predicate over the
/// right side of a product).
ExprPtr ShiftColumns(const ExprPtr& expr, size_t offset);

/// Convenience: TRUE and FALSE boolean literals.
ExprPtr TrueLiteral();
ExprPtr FalseLiteral();

}  // namespace uniqopt

#endif  // UNIQOPT_EXPR_EXPR_H_
