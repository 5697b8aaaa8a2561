#include "expr/predicate_program.h"

namespace uniqopt {
namespace {

// Hot inner loop for `col <op> const`. When both sides are integers the
// comparison inlines to a branch on the value's word; any other type
// pairing goes through Value::Compare, which is never wrong, just an
// out-of-line call.
inline size_t RefineCmp(const Row* data, std::vector<uint32_t>& s, size_t col,
                        CompareOp op, const Value& constant) {
  size_t kept = 0;
  if (constant.type() == TypeId::kInteger) {
    const int64_t k = constant.AsInteger();
    for (uint32_t idx : s) {
      const Value& v = data[idx][col];
      if (v.is_null()) continue;
      int c = v.type() == TypeId::kInteger
                  ? (v.AsInteger() < k ? -1 : (v.AsInteger() > k ? 1 : 0))
                  : v.Compare(constant);
      if (CompareOpHolds(c, op)) s[kept++] = idx;
    }
    return kept;
  }
  if (constant.type() == TypeId::kString) {
    const std::string_view ks = constant.AsString();
    for (uint32_t idx : s) {
      const Value& v = data[idx][col];
      if (v.is_null()) continue;
      int c = v.type() == TypeId::kString ? v.AsString().compare(ks)
                                          : v.Compare(constant);
      if (CompareOpHolds(c, op)) s[kept++] = idx;
    }
    return kept;
  }
  for (uint32_t idx : s) {
    const Value& v = data[idx][col];
    if (!v.is_null() && CompareOpHolds(v.Compare(constant), op)) {
      s[kept++] = idx;
    }
  }
  return kept;
}

}  // namespace

bool PredicateProgram::CompileNode(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kAnd: {
      bool all = true;
      for (const ExprPtr& c : e->children()) all = CompileNode(c) && all;
      return all;
    }
    case ExprKind::kLiteral:
      if (e->IsTrueLiteral()) return true;  // no-op atom
      break;
    case ExprKind::kComparison: {
      const ExprPtr& l = e->child(0);
      const ExprPtr& r = e->child(1);
      // Normalize to column-on-the-left; bail on col-vs-col and
      // anything nested.
      ExprPtr col = l, rhs = r;
      CompareOp op = e->compare_op();
      if (col->kind() != ExprKind::kColumnRef &&
          rhs->kind() == ExprKind::kColumnRef) {
        std::swap(col, rhs);
        op = FlipCompareOp(op);
      }
      if (col->kind() != ExprKind::kColumnRef) break;
      if (rhs->kind() == ExprKind::kLiteral) {
        Atom a;
        a.kind = AtomKind::kColCmpConst;
        a.col = col->column_index();
        a.op = op;
        a.constant = rhs->literal();
        atoms_.push_back(std::move(a));
        return true;
      }
      if (rhs->kind() == ExprKind::kHostVar) {
        Atom a;
        a.kind = AtomKind::kColCmpParam;
        a.col = col->column_index();
        a.op = op;
        a.param = rhs->host_var_index();
        atoms_.push_back(std::move(a));
        return true;
      }
      break;
    }
    case ExprKind::kIsNull:
    case ExprKind::kIsNotNull: {
      const ExprPtr& c = e->child(0);
      if (c->kind() != ExprKind::kColumnRef) break;
      Atom a;
      a.kind = e->kind() == ExprKind::kIsNull ? AtomKind::kColIsNull
                                              : AtomKind::kColIsNotNull;
      a.col = c->column_index();
      atoms_.push_back(std::move(a));
      return true;
    }
    default:
      break;
  }
  Atom a;
  a.kind = AtomKind::kInterpreted;
  a.fallback = e;
  atoms_.push_back(std::move(a));
  return false;
}

PredicateProgram PredicateProgram::Compile(ExprPtr predicate) {
  PredicateProgram p;
  if (predicate != nullptr) p.fully_compiled_ = p.CompileNode(predicate);
  return p;
}

void PredicateProgram::FilterSel(const Row* data, std::vector<uint32_t>* sel,
                                 const std::vector<Value>& params) const {
  for (const Atom& atom : atoms_) {
    if (sel->empty()) return;
    size_t kept = 0;
    std::vector<uint32_t>& s = *sel;
    switch (atom.kind) {
      case AtomKind::kColCmpConst: {
        if (atom.constant.is_null()) {
          sel->clear();  // <op> NULL is UNKNOWN for every row
          return;
        }
        kept = RefineCmp(data, s, atom.col, atom.op, atom.constant);
        break;
      }
      case AtomKind::kColCmpParam: {
        const Value& c = params[atom.param];
        if (c.is_null()) {
          sel->clear();
          return;
        }
        kept = RefineCmp(data, s, atom.col, atom.op, c);
        break;
      }
      case AtomKind::kColIsNull:
        for (uint32_t idx : s) {
          if (data[idx][atom.col].is_null()) s[kept++] = idx;
        }
        break;
      case AtomKind::kColIsNotNull:
        for (uint32_t idx : s) {
          if (!data[idx][atom.col].is_null()) s[kept++] = idx;
        }
        break;
      case AtomKind::kInterpreted:
        for (uint32_t idx : s) {
          if (atom.fallback->EvaluatePredicate(data[idx], params) ==
              Tribool::kTrue) {
            s[kept++] = idx;
          }
        }
        break;
    }
    sel->resize(kept);
  }
}

}  // namespace uniqopt
