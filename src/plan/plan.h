#ifndef UNIQOPT_PLAN_PLAN_H_
#define UNIQOPT_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "common/result.h"
#include "expr/expr.h"
#include "types/schema.h"

namespace uniqopt {

/// The paper's §2.2 multiset algebra, as an immutable logical plan.
/// Nodes are shared (rewrites reuse untouched subtrees).
enum class PlanKind {
  kGet,      ///< base table access
  kSelect,   ///< σ[C] — no duplicate elimination, 3VL false-interpreted
  kProject,  ///< π_All / π_Dist onto a column list
  kProduct,  ///< extended Cartesian product
  kExists,   ///< positive/negative existential subquery (semi/anti join)
  kSetOp,    ///< INTERSECT [ALL] / EXCEPT [ALL]
  kAggregate,  ///< GROUP BY + aggregate functions (§7 extension)
};

/// Duplicate handling of projections and set operations (`d` in π_d, ∩_d,
/// −_d).
enum class DuplicateMode { kAll, kDist };

enum class SetOpAlgebra { kIntersect, kExcept };

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// Base class of all logical operators.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  PlanKind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }

  virtual size_t num_children() const = 0;
  virtual const PlanPtr& child(size_t i) const = 0;

  /// Pretty tree rendering.
  std::string ToString() const;
  virtual void AppendTo(std::string* out, int indent) const = 0;

 protected:
  PlanNode(PlanKind kind, Schema schema)
      : kind_(kind), schema_(std::move(schema)) {}

  static void Indent(std::string* out, int indent);

 private:
  PlanKind kind_;
  Schema schema_;
};

/// Base table access. Output schema is the table schema with the FROM
/// clause correlation name as qualifier.
class GetNode final : public PlanNode {
 public:
  static PlanPtr Make(const TableDef* table, std::string alias);

  const TableDef& table() const { return *table_; }
  const std::string& alias() const { return alias_; }

  size_t num_children() const override { return 0; }
  const PlanPtr& child(size_t) const override;
  void AppendTo(std::string* out, int indent) const override;

 private:
  GetNode(const TableDef* table, std::string alias, Schema schema)
      : PlanNode(PlanKind::kGet, std::move(schema)),
        table_(table),
        alias_(std::move(alias)) {}

  const TableDef* table_;
  std::string alias_;
};

/// σ[C](input): rows of input for which C is TRUE (UNKNOWN rejects).
class SelectNode final : public PlanNode {
 public:
  static PlanPtr Make(PlanPtr input, ExprPtr predicate);

  const PlanPtr& input() const { return input_; }
  const ExprPtr& predicate() const { return predicate_; }

  size_t num_children() const override { return 1; }
  const PlanPtr& child(size_t) const override { return input_; }
  void AppendTo(std::string* out, int indent) const override;

 private:
  SelectNode(PlanPtr input, ExprPtr predicate, Schema schema)
      : PlanNode(PlanKind::kSelect, std::move(schema)),
        input_(std::move(input)),
        predicate_(std::move(predicate)) {}

  PlanPtr input_;
  ExprPtr predicate_;
};

/// π_d[A](input): projection onto a column list; d = Dist eliminates
/// duplicates under the null-equality operator `=!`.
class ProjectNode final : public PlanNode {
 public:
  /// `names`, when given, names the output: column i takes the
  /// qualifier and name of `names->column(i)` and keeps its input
  /// column's type. A rewrite passes the schema of the operator it
  /// replaces, so a result's column names never depend on whether the
  /// rewrite fired. Rebuilding a projection passes its own schema: its
  /// names may differ from its input's (an aggregate's, the first
  /// INTERSECT operand's) and must survive a later rewrite below it.
  static PlanPtr Make(PlanPtr input, DuplicateMode mode,
                      std::vector<size_t> columns,
                      const Schema* names = nullptr);

  const PlanPtr& input() const { return input_; }
  DuplicateMode mode() const { return mode_; }
  const std::vector<size_t>& columns() const { return columns_; }

  size_t num_children() const override { return 1; }
  const PlanPtr& child(size_t) const override { return input_; }
  void AppendTo(std::string* out, int indent) const override;

 private:
  ProjectNode(PlanPtr input, DuplicateMode mode, std::vector<size_t> columns,
              Schema schema)
      : PlanNode(PlanKind::kProject, std::move(schema)),
        input_(std::move(input)),
        mode_(mode),
        columns_(std::move(columns)) {}

  PlanPtr input_;
  DuplicateMode mode_;
  std::vector<size_t> columns_;
};

/// Extended Cartesian product; output schema is left ++ right.
class ProductNode final : public PlanNode {
 public:
  static PlanPtr Make(PlanPtr left, PlanPtr right);

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }

  size_t num_children() const override { return 2; }
  const PlanPtr& child(size_t i) const override {
    return i == 0 ? left_ : right_;
  }
  void AppendTo(std::string* out, int indent) const override;

 private:
  ProductNode(PlanPtr left, PlanPtr right, Schema schema)
      : PlanNode(PlanKind::kProduct, std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)) {}

  PlanPtr left_;
  PlanPtr right_;
};

/// σ[∃(σ[C](sub))](outer) — a semi-join (anti-join when `negated`). The
/// correlation predicate is bound against Concat(outer.schema,
/// sub.schema); output rows are outer rows with at least one (resp. no)
/// matching sub row. Output schema = outer schema.
class ExistsNode final : public PlanNode {
 public:
  static PlanPtr Make(PlanPtr outer, PlanPtr sub, ExprPtr correlation,
                      bool negated);

  const PlanPtr& outer() const { return outer_; }
  const PlanPtr& sub() const { return sub_; }
  /// Predicate over outer⊕sub concatenated schema (C_S ∧ C_{R,S} parts
  /// that reference both sides; sub-only conjuncts may be pushed into
  /// `sub` by the binder).
  const ExprPtr& correlation() const { return correlation_; }
  bool negated() const { return negated_; }

  size_t num_children() const override { return 2; }
  const PlanPtr& child(size_t i) const override {
    return i == 0 ? outer_ : sub_;
  }
  void AppendTo(std::string* out, int indent) const override;

 private:
  ExistsNode(PlanPtr outer, PlanPtr sub, ExprPtr correlation, bool negated,
             Schema schema)
      : PlanNode(PlanKind::kExists, std::move(schema)),
        outer_(std::move(outer)),
        sub_(std::move(sub)),
        correlation_(std::move(correlation)),
        negated_(negated) {}

  PlanPtr outer_;
  PlanPtr sub_;
  ExprPtr correlation_;
  bool negated_;
};

/// INTERSECT [ALL] / EXCEPT [ALL] over union-compatible inputs, with the
/// paper's tuple-equivalence semantics (`=!`: NULLs match NULLs).
class SetOpNode final : public PlanNode {
 public:
  static Result<PlanPtr> Make(SetOpAlgebra op, DuplicateMode mode,
                              PlanPtr left, PlanPtr right);

  SetOpAlgebra op() const { return op_; }
  DuplicateMode mode() const { return mode_; }
  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }

  size_t num_children() const override { return 2; }
  const PlanPtr& child(size_t i) const override {
    return i == 0 ? left_ : right_;
  }
  void AppendTo(std::string* out, int indent) const override;

 private:
  SetOpNode(SetOpAlgebra op, DuplicateMode mode, PlanPtr left, PlanPtr right,
            Schema schema)
      : PlanNode(PlanKind::kSetOp, std::move(schema)),
        op_(op),
        mode_(mode),
        left_(std::move(left)),
        right_(std::move(right)) {}

  SetOpAlgebra op_;
  DuplicateMode mode_;
  PlanPtr left_;
  PlanPtr right_;
};

/// Aggregate functions of the GROUP BY extension. NULL handling follows
/// SQL: COUNT(col) counts non-NULL values; SUM/MIN/MAX/AVG ignore NULLs
/// and return NULL for all-NULL (or empty) groups; COUNT(*) counts rows.
enum class AggFunc { kCountStar, kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncToString(AggFunc f);

/// One aggregate of an AggregateNode.
struct AggregateItem {
  AggFunc func = AggFunc::kCountStar;
  /// Argument column within the input schema (ignored for COUNT(*)).
  size_t arg_column = 0;
  /// Display name, e.g. "SUM(S.BUDGET)".
  std::string name;
};

/// GROUP BY: partitions input rows by the group columns under the
/// null-equality operator `=!` (SQL: GROUP BY treats NULLs as equal —
/// the same comparison DISTINCT uses, §3.1) and evaluates aggregates per
/// group. Output schema: group columns (input metadata preserved)
/// followed by one column per aggregate. The whole group-column list is
/// a derived key of the output — the property the uniqueness analysis
/// exploits.
class AggregateNode final : public PlanNode {
 public:
  static PlanPtr Make(PlanPtr input, std::vector<size_t> group_columns,
                      std::vector<AggregateItem> aggregates);

  const PlanPtr& input() const { return input_; }
  const std::vector<size_t>& group_columns() const { return group_columns_; }
  const std::vector<AggregateItem>& aggregates() const { return aggregates_; }

  size_t num_children() const override { return 1; }
  const PlanPtr& child(size_t) const override { return input_; }
  void AppendTo(std::string* out, int indent) const override;

  /// Result type of an aggregate over an argument of type `arg`.
  static TypeId ResultType(AggFunc func, TypeId arg);

 private:
  AggregateNode(PlanPtr input, std::vector<size_t> group_columns,
                std::vector<AggregateItem> aggregates, Schema schema)
      : PlanNode(PlanKind::kAggregate, std::move(schema)),
        input_(std::move(input)),
        group_columns_(std::move(group_columns)),
        aggregates_(std::move(aggregates)) {}

  PlanPtr input_;
  std::vector<size_t> group_columns_;
  std::vector<AggregateItem> aggregates_;
};

/// Checked downcast helpers.
template <typename T>
const T* As(const PlanPtr& node);
template <>
inline const GetNode* As<GetNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kGet ? static_cast<const GetNode*>(n.get())
                                     : nullptr;
}
template <>
inline const SelectNode* As<SelectNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kSelect
             ? static_cast<const SelectNode*>(n.get())
             : nullptr;
}
template <>
inline const ProjectNode* As<ProjectNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kProject
             ? static_cast<const ProjectNode*>(n.get())
             : nullptr;
}
template <>
inline const ProductNode* As<ProductNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kProduct
             ? static_cast<const ProductNode*>(n.get())
             : nullptr;
}
template <>
inline const ExistsNode* As<ExistsNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kExists
             ? static_cast<const ExistsNode*>(n.get())
             : nullptr;
}
template <>
inline const SetOpNode* As<SetOpNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kSetOp
             ? static_cast<const SetOpNode*>(n.get())
             : nullptr;
}
template <>
inline const AggregateNode* As<AggregateNode>(const PlanPtr& n) {
  return n->kind() == PlanKind::kAggregate
             ? static_cast<const AggregateNode*>(n.get())
             : nullptr;
}

}  // namespace uniqopt

#endif  // UNIQOPT_PLAN_PLAN_H_
