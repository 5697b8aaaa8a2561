#include "equiv/equiv.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "equiv/canonical.h"
#include "equiv/symbolic.h"
#include "expr/normalize.h"

namespace uniqopt {
namespace equiv {
namespace {

Certificate Make(const AppliedRewrite& r, Verdict v, const char* method,
                 std::string detail, std::string witness = "") {
  Certificate cert;
  cert.verdict = v;
  cert.rule = RewriteRuleIdToString(r.rule);
  cert.method = method;
  cert.detail = std::move(detail);
  cert.witness = std::move(witness);
  return cert;
}

Certificate Proven(const AppliedRewrite& r, const char* method,
                   std::string detail) {
  return Make(r, Verdict::kProven, method, std::move(detail));
}

Certificate Unproven(const AppliedRewrite& r, const char* method,
                     std::string detail) {
  return Make(r, Verdict::kUnproven, method, std::move(detail));
}

Certificate Refuted(const AppliedRewrite& r, const char* method,
                    std::string detail, std::string witness) {
  return Make(r, Verdict::kRefuted, method, std::move(detail),
              std::move(witness));
}

/// The join side of the subquery rules: Project over Select over Product.
struct JoinShape {
  const ProjectNode* proj = nullptr;
  const SelectNode* sel = nullptr;
  const ProductNode* prod = nullptr;
};

bool MatchJoinShape(const PlanPtr& plan, JoinShape* out) {
  out->proj = As<ProjectNode>(plan);
  if (out->proj == nullptr) return false;
  out->sel = As<SelectNode>(out->proj->input());
  if (out->sel == nullptr) return false;
  out->prod = As<ProductNode>(out->sel->input());
  return out->prod != nullptr;
}

/// Accepts both evidence shapes for the EXISTS side: the full
/// Project(Exists(...)) subtree and a bare ExistsNode (forged or legacy
/// evidence). `proj_out` receives the projection when present.
const ExistsNode* UnwrapExists(const PlanPtr& plan,
                               const ProjectNode** proj_out) {
  *proj_out = nullptr;
  if (const auto* proj = As<ProjectNode>(plan)) {
    *proj_out = proj;
    return As<ExistsNode>(proj->input());
  }
  return As<ExistsNode>(plan);
}

/// Does table `ti` of `spec` have a candidate key fully inside `bound`?
bool TableCovered(const SymbolicSpec& spec, const std::vector<char>& bound,
                  size_t ti) {
  const SymbolicTable& t = spec.tables[ti];
  for (const KeyConstraint& key : t.get->table().keys()) {
    bool all = true;
    for (size_t kc : key.columns) {
      if (t.offset + kc >= bound.size() || !bound[t.offset + kc]) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// The correlated block of an EXISTS: subquery tables shifted past the
/// outer row, inner conjuncts and correlation conjuncts over the
/// concatenated Concat(outer, sub) frame. Outer tables deliberately stay
/// out of `spec.tables` — the Theorem 2 obligation fixes one outer row
/// and asks how many subquery rows can match it.
struct CorrelatedSpec {
  SymbolicSpec spec;
  Schema frame;
  size_t outer_width = 0;
};

bool BuildCorrelatedSpec(const ExistsNode& exists, CorrelatedSpec* out) {
  SymbolicSpec inner;
  if (!DecomposeBlock(exists.sub(), &inner)) return false;
  const Schema& outer_schema = exists.outer()->schema();
  size_t ow = outer_schema.num_columns();
  out->outer_width = ow;
  out->spec.width = ow + inner.width;
  out->spec.has_exists_filter = inner.has_exists_filter;
  for (const SymbolicTable& t : inner.tables) {
    out->spec.tables.push_back({t.get, t.offset + ow});
  }
  for (const ExprPtr& c : inner.conjuncts) {
    out->spec.conjuncts.push_back(ShiftColumns(c, ow));
  }
  for (const ExprPtr& c : FlattenAnd(exists.correlation())) {
    if (!c->IsTrueLiteral()) out->spec.conjuncts.push_back(c);
  }
  out->frame = Schema::Concat(outer_schema, exists.sub()->schema());
  return true;
}

/// Theorem 2's semantic obligation: with the outer row fixed, at most
/// one subquery row can match. Proven when the correlation equalities
/// bind a candidate key of every subquery table; refuted when the chase
/// constructs two distinct matching subquery rows; unproven otherwise.
Certificate CertifyAtMostOneMatch(const AppliedRewrite& r,
                                  const ExistsNode& exists,
                                  const char* method) {
  CorrelatedSpec cs;
  if (!BuildCorrelatedSpec(exists, &cs)) {
    return Unproven(r, method,
                    "subquery side does not decompose into a σ/×/Get block");
  }
  std::vector<char> bound(cs.spec.width, 0);
  for (size_t c = 0; c < cs.outer_width; ++c) bound[c] = 1;
  bound = CloseOverEqualities(cs.spec, std::move(bound));
  size_t uncovered = 0;
  if (AllKeysCovered(cs.spec, bound, &uncovered)) {
    return Proven(r, method,
                  "the correlation equalities bind a candidate key of every "
                  "subquery table per outer row — at most one match "
                  "(Theorem 2)");
  }
  std::string blocked;
  for (size_t ti = 0; ti < cs.spec.tables.size(); ++ti) {
    if (TableCovered(cs.spec, bound, ti)) continue;
    WitnessRequest req{&cs.spec, &cs.frame, bound, ti};
    std::string why;
    if (auto w = BuildDuplicateWitness(req, &why)) {
      return Refuted(r, method,
                     "two distinct subquery rows match one outer row — "
                     "EXISTS emits the outer tuple once, the join twice",
                     *w);
    }
    if (blocked.empty()) blocked = why;
  }
  return Unproven(r, method,
                  "cannot bound the subquery match count: " + blocked);
}

/// Is `e` exactly `#i = #(n+i)` (either orientation)?
bool MatchEqPair(const ExprPtr& e, size_t n, size_t* idx) {
  if (e->kind() != ExprKind::kComparison ||
      e->compare_op() != CompareOp::kEq) {
    return false;
  }
  const ExprPtr& l = e->child(0);
  const ExprPtr& r = e->child(1);
  if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kColumnRef) {
    return false;
  }
  size_t a = l->column_index();
  size_t b = r->column_index();
  if (a > b) std::swap(a, b);
  if (a >= n || b != a + n) return false;
  *idx = a;
  return true;
}

/// Is `e` the null-safe pair `(#i IS NULL AND #(n+i) IS NULL) OR
/// #i = #(n+i)` in any operand order?
bool MatchNullSafePair(const ExprPtr& e, size_t n, size_t* idx) {
  if (e->kind() != ExprKind::kOr || e->num_children() != 2) return false;
  const ExprPtr* and_side = nullptr;
  const ExprPtr* eq_side = nullptr;
  for (const ExprPtr& c : e->children()) {
    if (c->kind() == ExprKind::kAnd) {
      and_side = &c;
    } else {
      eq_side = &c;
    }
  }
  if (and_side == nullptr || eq_side == nullptr) return false;
  size_t eq_idx = 0;
  if (!MatchEqPair(*eq_side, n, &eq_idx)) return false;
  if ((*and_side)->num_children() != 2) return false;
  std::set<size_t> nulled;
  for (const ExprPtr& c : (*and_side)->children()) {
    if (c->kind() != ExprKind::kIsNull ||
        c->child(0)->kind() != ExprKind::kColumnRef) {
      return false;
    }
    nulled.insert(c->child(0)->column_index());
  }
  if (nulled != std::set<size_t>{eq_idx, eq_idx + n}) return false;
  *idx = eq_idx;
  return true;
}

/// Audit of an EXISTS correlation standing in for the tuple-level `=!`
/// match of a set operation (Theorem 3). Every outer column must be
/// compared null-safely — or with plain `=` when at least one side is
/// NOT NULL, where the two coincide. Plain `=` over a column nullable on
/// both sides is the 3VL unsoundness the paper warns about: refuted with
/// a NULL-tuple witness.
struct CorrAudit {
  enum Status { kOk, kUnproven, kRefuted } status = kOk;
  std::string detail;
  std::string witness;
};

CorrAudit AuditSetOpCorrelation(const ExistsNode& exists) {
  const Schema& outer_s = exists.outer()->schema();
  const Schema& sub_s = exists.sub()->schema();
  size_t n = outer_s.num_columns();
  if (sub_s.num_columns() != n) {
    return {CorrAudit::kUnproven, "operands are not union-compatible", ""};
  }
  std::vector<char> seen(n, 0);
  std::vector<char> safe(n, 0);
  for (const ExprPtr& c : FlattenAnd(exists.correlation())) {
    if (c->IsTrueLiteral()) continue;
    size_t idx = 0;
    if (MatchNullSafePair(c, n, &idx)) {
      seen[idx] = 1;
      safe[idx] = 1;
      continue;
    }
    if (MatchEqPair(c, n, &idx)) {
      seen[idx] = 1;
      continue;
    }
    return {CorrAudit::kUnproven,
            "unrecognized correlation conjunct: " + CanonicalExprText(c), ""};
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string name = outer_s.column(i).QualifiedName();
    if (!seen[i]) {
      return {CorrAudit::kUnproven,
              "correlation never compares column " + name, ""};
    }
    if (safe[i]) continue;
    if (!outer_s.column(i).nullable || !sub_s.column(i).nullable) continue;
    std::string w =
        "3VL counterexample on " + name +
        ": place a tuple t with t[" + name +
        "] = NULL in both operands; the set operation's `=!` tuple match "
        "accepts t =! t (multiplicity 1) while the plain `=` correlation "
        "evaluates UNKNOWN and the EXISTS drops t (multiplicity 0)";
    return {CorrAudit::kRefuted,
            "plain `=` on correlation column " + name +
                ", which is nullable on both sides (Theorem 3 requires the "
                "null-safe `=!` form)",
            std::move(w)};
  }
  return {CorrAudit::kOk, "", ""};
}

// ---------------------------------------------------------------------
// Per-rule certifiers.
// ---------------------------------------------------------------------

Certificate CertifyDistinctRemoval(const AppliedRewrite& r) {
  const char* method = "duplicate-freeness";
  if (const auto* bp = As<ProjectNode>(r.evidence.before)) {
    const auto* ap = As<ProjectNode>(r.evidence.after);
    if (ap == nullptr) {
      return Unproven(r, method, "after side is not a projection");
    }
    if (bp->mode() != DuplicateMode::kDist ||
        ap->mode() != DuplicateMode::kAll) {
      return Unproven(r, method, "projection modes are not Dist → All");
    }
    if (bp->columns() != ap->columns() ||
        !CanonicallyEqualPlans(bp->input(), ap->input())) {
      return Unproven(r, method, "projection columns or inputs differ");
    }
    if (SymbolicallyDuplicateFree(r.evidence.after)) {
      return Proven(r, method,
                    "π_All output re-derived duplicate-free from declared "
                    "keys and GROUP BY columns alone (Theorem 1)");
    }
    SymbolicSpec spec;
    if (!DecomposeProjection(r.evidence.after, &spec)) {
      return Unproven(r, method,
                      "projection input does not decompose into a σ/×/Get "
                      "block");
    }
    std::vector<char> bound(spec.width, 0);
    for (size_t c : spec.columns) {
      if (c < spec.width) bound[c] = 1;
    }
    bound = CloseOverEqualities(spec, std::move(bound));
    const Schema& frame = ap->input()->schema();
    std::string blocked;
    for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
      if (TableCovered(spec, bound, ti)) continue;
      WitnessRequest req{&spec, &frame, bound, ti};
      std::string why;
      if (auto w = BuildDuplicateWitness(req, &why)) {
        return Refuted(r, method,
                       "DISTINCT removal changes multiplicities: π_Dist "
                       "emits the witness tuple once, π_All twice",
                       *w);
      }
      if (blocked.empty()) blocked = why;
    }
    return Unproven(r, method,
                    "no declared key covers the projection; chase blocked: " +
                        blocked);
  }
  if (const auto* bs = As<SetOpNode>(r.evidence.before)) {
    const auto* as = As<SetOpNode>(r.evidence.after);
    if (as == nullptr) {
      return Unproven(r, method, "after side is not a set operation");
    }
    if (bs->op() != as->op() || bs->mode() != DuplicateMode::kDist ||
        as->mode() != DuplicateMode::kAll) {
      return Unproven(r, method, "set-operation modes are not Dist → All");
    }
    if (!CanonicallyEqualPlans(bs->left(), as->left()) ||
        !CanonicallyEqualPlans(bs->right(), as->right())) {
      return Unproven(r, method, "set-operation operands differ");
    }
    if (as->op() == SetOpAlgebra::kIntersect) {
      if (SymbolicallyDuplicateFree(as->left()) ||
          SymbolicallyDuplicateFree(as->right())) {
        return Proven(r, method,
                      "an INTERSECT ALL operand is duplicate-free, so "
                      "min(l, r) never exceeds 1");
      }
    } else if (SymbolicallyDuplicateFree(as->left())) {
      return Proven(r, method,
                    "EXCEPT ALL's left operand is duplicate-free, so "
                    "l − r never exceeds 1");
    }
    return Unproven(r, method,
                    "cannot re-derive operand duplicate-freeness from "
                    "declared keys");
  }
  return Unproven(r, method, "unexpected before-plan shape");
}

/// Shared structural matching for the EXISTS ⇄ join rules. On success
/// fills the join shape and the EXISTS node and verifies operands,
/// predicate split, and an outer-only projection.
struct SubqueryJoinMatch {
  const ExistsNode* exists = nullptr;
  const ProjectNode* exists_proj = nullptr;  // nullptr for bare evidence
  JoinShape join;
  std::string failure;  // non-empty ⇒ structural mismatch
};

SubqueryJoinMatch MatchSubqueryJoin(const PlanPtr& exists_side,
                                    const PlanPtr& join_side) {
  SubqueryJoinMatch m;
  m.exists = UnwrapExists(exists_side, &m.exists_proj);
  if (m.exists == nullptr) {
    m.failure = "no EXISTS subtree in the evidence";
    return m;
  }
  if (m.exists->negated()) {
    m.failure = "NOT EXISTS does not correspond to a plain join";
    return m;
  }
  if (!MatchJoinShape(join_side, &m.join)) {
    m.failure = "join side is not Project(Select(Product))";
    return m;
  }
  // The EXISTS outer operand is the join's left input, possibly behind a
  // Select carrying the outer-only conjuncts of the join predicate.
  std::vector<std::string> outer_conjs;
  if (!CanonicallyEqualPlans(m.exists->outer(), m.join.prod->left())) {
    const auto* osel = As<SelectNode>(m.exists->outer());
    if (osel == nullptr ||
        !CanonicallyEqualPlans(osel->input(), m.join.prod->left())) {
      m.failure = "EXISTS outer operand does not match the join's left input";
      return m;
    }
    outer_conjs = CanonicalConjunctSet(osel->predicate());
  }
  if (!CanonicallyEqualPlans(m.exists->sub(), m.join.prod->right())) {
    m.failure = "EXISTS subquery does not match the join's right input";
    return m;
  }
  std::vector<std::string> rebuilt = std::move(outer_conjs);
  std::vector<std::string> corr = CanonicalConjunctSet(m.exists->correlation());
  rebuilt.insert(rebuilt.end(), corr.begin(), corr.end());
  std::sort(rebuilt.begin(), rebuilt.end());
  if (rebuilt != CanonicalConjunctSet(m.join.sel->predicate())) {
    m.failure =
        "join predicate does not split into outer filter + correlation";
    return m;
  }
  if (m.exists_proj != nullptr &&
      m.exists_proj->columns() != m.join.proj->columns()) {
    m.failure = "projection columns differ between the two sides";
    return m;
  }
  size_t left_width = m.join.prod->left()->schema().num_columns();
  for (size_t c : m.join.proj->columns()) {
    if (c >= left_width) {
      m.failure = "projection reaches into the subquery side";
      return m;
    }
  }
  return m;
}

Certificate CertifySubqueryToJoin(const AppliedRewrite& r) {
  const char* method = "Theorem 2";
  SubqueryJoinMatch m = MatchSubqueryJoin(r.evidence.before, r.evidence.after);
  if (!m.failure.empty()) return Unproven(r, method, m.failure);
  if (m.exists_proj != nullptr &&
      m.exists_proj->mode() != m.join.proj->mode()) {
    return Unproven(r, method, "projection modes differ between the sides");
  }
  if (m.join.proj->mode() == DuplicateMode::kDist) {
    return Proven(r, "distinct projection",
                  "π_Dist over outer columns only: a join row exists iff "
                  "the EXISTS match does, and DISTINCT erases the match "
                  "count");
  }
  return CertifyAtMostOneMatch(r, *m.exists, method);
}

Certificate CertifySubqueryToDistinctJoin(const AppliedRewrite& r) {
  const char* method = "Corollary 1";
  SubqueryJoinMatch m = MatchSubqueryJoin(r.evidence.before, r.evidence.after);
  if (!m.failure.empty()) return Unproven(r, method, m.failure);
  if (m.join.proj->mode() != DuplicateMode::kDist) {
    return Unproven(r, method, "rewritten projection is not DISTINCT");
  }
  if (m.exists_proj != nullptr &&
      m.exists_proj->mode() == DuplicateMode::kDist) {
    return Proven(r, "distinct projection",
                  "π_Dist on both sides over outer columns only: the "
                  "distinct projected tuples coincide regardless of match "
                  "counts");
  }
  // π_All before, π_Dist after: sound only when the outer projection was
  // already duplicate-free (Corollary 1); otherwise the introduced
  // DISTINCT collapses real duplicates.
  PlanPtr probe = ProjectNode::Make(m.exists->outer(), DuplicateMode::kAll,
                                    m.join.proj->columns());
  if (SymbolicallyDuplicateFree(probe)) {
    return Proven(r, method,
                  "the outer block's projection is re-derived "
                  "duplicate-free from declared keys, so adding DISTINCT "
                  "is a no-op");
  }
  SymbolicSpec spec;
  if (DecomposeProjection(probe, &spec)) {
    std::vector<char> bound(spec.width, 0);
    for (size_t c : spec.columns) {
      if (c < spec.width) bound[c] = 1;
    }
    bound = CloseOverEqualities(spec, std::move(bound));
    const Schema& frame = m.exists->outer()->schema();
    for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
      if (TableCovered(spec, bound, ti)) continue;
      WitnessRequest req{&spec, &frame, bound, ti};
      std::string why;
      if (auto w = BuildDuplicateWitness(req, &why)) {
        return Refuted(r, method,
                       "the rewrite introduces DISTINCT over a "
                       "duplicate-carrying outer projection",
                       *w);
      }
    }
  }
  return Unproven(r, method,
                  "cannot re-derive duplicate-freeness of the outer "
                  "projection from declared keys");
}

Certificate CertifyJoinToSubquery(const AppliedRewrite& r) {
  const char* method = "Theorem 2 (converse)";
  SubqueryJoinMatch m = MatchSubqueryJoin(r.evidence.after, r.evidence.before);
  if (!m.failure.empty()) return Unproven(r, method, m.failure);
  if (m.exists_proj != nullptr &&
      m.exists_proj->mode() != m.join.proj->mode()) {
    return Unproven(r, method, "projection modes differ between the sides");
  }
  if (m.join.proj->mode() == DuplicateMode::kDist) {
    return Proven(r, "distinct projection",
                  "π_Dist over outer columns only: the join row exists iff "
                  "the EXISTS match does, and DISTINCT erases the match "
                  "count");
  }
  return CertifyAtMostOneMatch(r, *m.exists, method);
}

Certificate CertifySetOpToExists(const AppliedRewrite& r) {
  const char* method = "Theorem 3";
  const auto* setop = As<SetOpNode>(r.evidence.before);
  const auto* ex = As<ExistsNode>(r.evidence.after);
  if (setop == nullptr || ex == nullptr) {
    return Unproven(r, method, "expected SetOp → Exists evidence");
  }
  bool except = r.rule == RewriteRuleId::kExceptToNotExists;
  if (except != ex->negated()) {
    return Unproven(r, method,
                    "EXISTS negation does not match the set operation");
  }
  if (setop->op() !=
      (except ? SetOpAlgebra::kExcept : SetOpAlgebra::kIntersect)) {
    return Unproven(r, method, "set-operation kind does not match the rule");
  }
  if (r.rule == RewriteRuleId::kIntersectToExists &&
      setop->mode() != DuplicateMode::kDist) {
    return Unproven(r, method, "rule expects INTERSECT DISTINCT");
  }
  if (r.rule == RewriteRuleId::kIntersectAllToExists &&
      setop->mode() != DuplicateMode::kAll) {
    return Unproven(r, method, "rule expects INTERSECT ALL");
  }
  bool direct = CanonicallyEqualPlans(ex->outer(), setop->left()) &&
                CanonicallyEqualPlans(ex->sub(), setop->right());
  bool swapped = !except &&
                 CanonicallyEqualPlans(ex->outer(), setop->right()) &&
                 CanonicallyEqualPlans(ex->sub(), setop->left());
  if (!direct && !swapped) {
    return Unproven(r, method,
                    "EXISTS operands do not match the set operation's");
  }
  CorrAudit audit = AuditSetOpCorrelation(*ex);
  if (audit.status == CorrAudit::kRefuted) {
    return Refuted(r, method, audit.detail, audit.witness);
  }
  if (audit.status == CorrAudit::kUnproven) {
    return Unproven(r, method, audit.detail);
  }
  if (!SymbolicallyDuplicateFree(ex->outer())) {
    return Unproven(r, method,
                    "cannot re-derive duplicate-freeness of the EXISTS "
                    "outer operand from declared keys");
  }
  return Proven(r, method,
                "operands match, every correlation column compares "
                "null-safely (or is NOT NULL on one side), and the outer "
                "operand is duplicate-free");
}

Certificate CertifyExistsToIntersect(const AppliedRewrite& r) {
  const char* method = "Theorem 3 (converse)";
  const auto* ex = As<ExistsNode>(r.evidence.before);
  const auto* setop = As<SetOpNode>(r.evidence.after);
  if (ex == nullptr || setop == nullptr) {
    return Unproven(r, method, "expected Exists → SetOp evidence");
  }
  if (ex->negated() || setop->op() != SetOpAlgebra::kIntersect ||
      setop->mode() != DuplicateMode::kDist) {
    return Unproven(r, method,
                    "rule expects positive EXISTS → INTERSECT DISTINCT");
  }
  bool direct = CanonicallyEqualPlans(ex->outer(), setop->left()) &&
                CanonicallyEqualPlans(ex->sub(), setop->right());
  bool swapped = CanonicallyEqualPlans(ex->outer(), setop->right()) &&
                 CanonicallyEqualPlans(ex->sub(), setop->left());
  if (!direct && !swapped) {
    return Unproven(r, method,
                    "INTERSECT operands do not match the EXISTS operands");
  }
  CorrAudit audit = AuditSetOpCorrelation(*ex);
  if (audit.status == CorrAudit::kRefuted) {
    return Refuted(r, method, audit.detail, audit.witness);
  }
  if (audit.status == CorrAudit::kUnproven) {
    return Unproven(r, method, audit.detail);
  }
  if (!SymbolicallyDuplicateFree(ex->outer())) {
    return Unproven(r, method,
                    "cannot re-derive duplicate-freeness of the EXISTS "
                    "outer operand from declared keys");
  }
  return Proven(r, method,
                "the correlation is exactly the null-safe column-wise "
                "tuple match and the outer operand is duplicate-free");
}

Certificate CertifyGroupByElimination(const AppliedRewrite& r) {
  const char* method = "singleton groups";
  const auto* agg = As<AggregateNode>(r.evidence.before);
  const auto* ap = As<ProjectNode>(r.evidence.after);
  if (agg == nullptr || ap == nullptr) {
    return Unproven(r, method, "expected Aggregate → Project evidence");
  }
  if (ap->mode() != DuplicateMode::kAll ||
      !CanonicallyEqualPlans(ap->input(), agg->input())) {
    return Unproven(r, method,
                    "after side is not π_All over the aggregation input");
  }
  if (agg->group_columns().empty()) {
    return Unproven(r, method, "no grouping columns (scalar aggregate)");
  }
  std::vector<size_t> expected = agg->group_columns();
  for (const AggregateItem& item : agg->aggregates()) {
    if (item.func != AggFunc::kSum && item.func != AggFunc::kMin &&
        item.func != AggFunc::kMax) {
      return Unproven(r, method,
                      "only SUM/MIN/MAX equal their argument on singleton "
                      "groups");
    }
    expected.push_back(item.arg_column);
  }
  if (expected != ap->columns()) {
    return Unproven(r, method,
                    "projection is not group columns followed by aggregate "
                    "arguments");
  }
  SymbolicSpec spec;
  if (!DecomposeBlock(agg->input(), &spec)) {
    return Unproven(r, method,
                    "aggregation input does not decompose into a σ/×/Get "
                    "block");
  }
  std::vector<char> bound(spec.width, 0);
  for (size_t c : agg->group_columns()) {
    if (c < spec.width) bound[c] = 1;
  }
  bound = CloseOverEqualities(spec, std::move(bound));
  if (AllKeysCovered(spec, bound, nullptr)) {
    return Proven(r, method,
                  "the grouping columns bind a candidate key of every "
                  "input table — every group holds exactly one row");
  }
  const Schema& frame = agg->input()->schema();
  std::string blocked;
  for (size_t ti = 0; ti < spec.tables.size(); ++ti) {
    if (TableCovered(spec, bound, ti)) continue;
    WitnessRequest req{&spec, &frame, bound, ti};
    std::string why;
    if (auto w = BuildDuplicateWitness(req, &why)) {
      return Refuted(r, method,
                     "two input rows fall into one group: the aggregation "
                     "emits one row where the projection emits two",
                     *w);
    }
    if (blocked.empty()) blocked = why;
  }
  return Unproven(r, method,
                  "grouping columns do not bind every table's key; chase "
                  "blocked: " + blocked);
}

Certificate CertifyJoinElimination(const AppliedRewrite& r) {
  const char* method = "inclusion dependency";
  SymbolicSpec bspec;
  SymbolicSpec aspec;
  if (!DecomposeProjection(r.evidence.before, &bspec) ||
      !DecomposeProjection(r.evidence.after, &aspec)) {
    return Unproven(r, method,
                    "evidence sides do not decompose into projected blocks");
  }
  if (bspec.has_exists_filter || aspec.has_exists_filter) {
    return Unproven(r, method, "an EXISTS filter obscures the block");
  }
  if (bspec.mode != aspec.mode) {
    return Unproven(r, method, "projection modes differ");
  }
  // Identify the eliminated table: the sides must list the same tables in
  // order, minus exactly one.
  size_t victim = bspec.tables.size();
  {
    size_t ai = 0;
    for (size_t bi = 0; bi < bspec.tables.size(); ++bi) {
      const GetNode* bg = bspec.tables[bi].get;
      if (ai < aspec.tables.size() &&
          aspec.tables[ai].get->table().name() == bg->table().name() &&
          aspec.tables[ai].get->alias() == bg->alias()) {
        ++ai;
        continue;
      }
      if (victim != bspec.tables.size()) {
        return Unproven(r, method, "more than one table was eliminated");
      }
      victim = bi;
    }
    if (ai != aspec.tables.size() || victim == bspec.tables.size()) {
      return Unproven(r, method,
                      "table sets do not differ by exactly one table");
    }
  }
  const SymbolicTable& vt = bspec.tables[victim];
  const TableDef& vdef = vt.get->table();
  size_t vw = vdef.schema().num_columns();
  // Old-frame → new-frame column mapping for the surviving tables.
  std::vector<std::optional<size_t>> to_new(bspec.width);
  {
    size_t ai = 0;
    for (size_t bi = 0; bi < bspec.tables.size(); ++bi) {
      if (bi == victim) continue;
      size_t w = bspec.tables[bi].get->table().schema().num_columns();
      for (size_t c = 0; c < w; ++c) {
        to_new[bspec.tables[bi].offset + c] = aspec.tables[ai].offset + c;
      }
      ++ai;
    }
  }
  if (bspec.columns.size() != aspec.columns.size()) {
    return Unproven(r, method, "projection widths differ");
  }
  for (size_t i = 0; i < bspec.columns.size(); ++i) {
    size_t oc = bspec.columns[i];
    if (oc >= bspec.width || !to_new[oc].has_value()) {
      return Unproven(r, method,
                      "projection references the eliminated table");
    }
    if (*to_new[oc] != aspec.columns[i]) {
      return Unproven(r, method, "projection remap mismatch");
    }
  }
  auto in_victim = [&](size_t c) {
    return c >= vt.offset && c < vt.offset + vw;
  };
  // Classify the before conjuncts: anything touching the victim must be
  // a plain column-pair equality; everything else must survive remapped.
  std::vector<std::pair<size_t, size_t>> pairs;
  std::multiset<std::string> survivors;
  for (const ExprPtr& c : bspec.conjuncts) {
    std::vector<size_t> cols;
    c->CollectColumns(&cols);
    bool touches = false;
    for (size_t col : cols) touches = touches || in_victim(col);
    if (touches) {
      auto atom = ClassifyEqualityAtom(c);
      if (!atom.has_value() || !atom->column_pair) {
        return Unproven(r, method,
                        "a non-join predicate touches the eliminated "
                        "table: " + CanonicalExprText(c));
      }
      pairs.emplace_back(atom->left, atom->right);
      continue;
    }
    std::vector<size_t> mapping(bspec.width, 0);
    for (size_t col : cols) {
      if (!to_new[col].has_value()) {
        return Unproven(r, method, "conjunct references an unmapped column");
      }
      mapping[col] = *to_new[col];
    }
    survivors.insert(CanonicalExprText(RemapColumns(c, mapping)));
  }
  auto has_pair = [&](size_t a, size_t b) {
    for (const auto& p : pairs) {
      if ((p.first == a && p.second == b) ||
          (p.first == b && p.second == a)) {
        return true;
      }
    }
    return false;
  };
  // Re-derive the inclusion dependency: some surviving table must carry a
  // NOT NULL foreign key onto a candidate key of the victim, with the
  // full key join present among the victim-touching equalities, and no
  // victim-touching equality outside that key.
  std::string fk_gap = "no foreign key onto " + vdef.name() + " found";
  bool fk_ok = false;
  std::string fk_name;
  for (size_t si = 0; si < bspec.tables.size() && !fk_ok; ++si) {
    if (si == victim) continue;
    const SymbolicTable& st = bspec.tables[si];
    for (const ForeignKeyConstraint& fk : st.get->table().foreign_keys()) {
      if (fk.ref_table != vdef.name()) continue;
      std::vector<size_t> refs;
      bool ok = true;
      for (const std::string& rc : fk.ref_columns) {
        auto ord = vdef.ColumnOrdinal(rc);
        if (!ord.ok()) {
          ok = false;
          break;
        }
        refs.push_back((*ord));
      }
      if (!ok) {
        fk_gap = "foreign key " + fk.name + " references unknown columns";
        continue;
      }
      std::set<size_t> refset(refs.begin(), refs.end());
      bool is_key = false;
      for (const KeyConstraint& key : vdef.keys()) {
        std::set<size_t> ks(key.columns.begin(), key.columns.end());
        if (ks == refset) is_key = true;
      }
      if (!is_key) {
        fk_gap = "foreign key " + fk.name +
                 " does not target a declared candidate key";
        continue;
      }
      for (size_t j = 0; j < fk.columns.size() && ok; ++j) {
        if (st.get->table().schema().column(fk.columns[j]).nullable) {
          fk_gap = "foreign key " + fk.name + " has a nullable source column";
          ok = false;
        }
      }
      for (size_t j = 0; j < fk.columns.size() && ok; ++j) {
        if (!has_pair(st.offset + fk.columns[j], vt.offset + refs[j])) {
          fk_gap = "the full key join for " + fk.name + " is not present";
          ok = false;
        }
      }
      for (const auto& p : pairs) {
        if (!ok) break;
        size_t vcol = in_victim(p.first) ? p.first
                     : in_victim(p.second) ? p.second
                                           : bspec.width;
        if (vcol == bspec.width) continue;  // between survivors
        if (in_victim(p.first) && in_victim(p.second)) {
          fk_gap = "a self-equality inside the eliminated table";
          ok = false;
          break;
        }
        if (refset.count(vcol - vt.offset) == 0) {
          fk_gap = "a join reaches a non-key column of the eliminated table";
          ok = false;
        }
      }
      if (ok) {
        fk_ok = true;
        fk_name = fk.name;
        break;
      }
    }
  }
  if (!fk_ok) return Unproven(r, method, fk_gap);
  // Every after conjunct must be a remapped survivor or an equality
  // derivable by transitivity through one victim column.
  std::vector<size_t> to_old(aspec.width, 0);
  for (size_t oc = 0; oc < bspec.width; ++oc) {
    if (to_new[oc].has_value()) to_old[*to_new[oc]] = oc;
  }
  for (const ExprPtr& c : aspec.conjuncts) {
    std::string txt = CanonicalExprText(c);
    auto it = survivors.find(txt);
    if (it != survivors.end()) {
      survivors.erase(it);
      continue;
    }
    auto atom = ClassifyEqualityAtom(c);
    if (!atom.has_value() || !atom->column_pair ||
        atom->left >= aspec.width || atom->right >= aspec.width) {
      return Unproven(r, method,
                      "unexplained predicate in the rewritten plan: " + txt);
    }
    size_t oa = to_old[atom->left];
    size_t ob = to_old[atom->right];
    bool derived = false;
    for (size_t lc = 0; lc < vw; ++lc) {
      size_t g = vt.offset + lc;
      if (has_pair(oa, g) && has_pair(ob, g)) derived = true;
    }
    if (!derived) {
      return Unproven(r, method,
                      "equality in the rewritten plan is not derivable by "
                      "transitivity: " + txt);
    }
  }
  if (!survivors.empty()) {
    return Unproven(r, method,
                    "a surviving predicate was dropped: " +
                        *survivors.begin());
  }
  return Proven(r, method,
                "NOT NULL foreign key " + fk_name +
                    " onto a candidate key of " + vdef.name() +
                    " re-derived: the eliminated table contributes exactly "
                    "one row per surviving row");
}

Certificate CertifyPredicateRemoval(const AppliedRewrite& r) {
  const char* method = "CHECK implication";
  const auto* bsel = As<SelectNode>(r.evidence.before);
  if (bsel == nullptr) {
    return Unproven(r, method, "before side is not a selection");
  }
  const PlanPtr& input = bsel->input();
  std::vector<std::string> after_texts;
  if (!CanonicallyEqualPlans(r.evidence.after, input)) {
    const auto* asel = As<SelectNode>(r.evidence.after);
    if (asel == nullptr || !CanonicallyEqualPlans(asel->input(), input)) {
      return Unproven(r, method,
                      "after side is not the same block minus conjuncts");
    }
    after_texts = CanonicalConjunctSet(asel->predicate());
  }
  // Dropped set = before conjuncts minus after conjuncts; the after side
  // must not invent anything.
  std::multiset<std::string> remaining(after_texts.begin(), after_texts.end());
  std::vector<ExprPtr> dropped;
  for (const ExprPtr& c : FlattenAnd(bsel->predicate())) {
    if (c->IsTrueLiteral()) continue;
    auto it = remaining.find(CanonicalExprText(c));
    if (it != remaining.end()) {
      remaining.erase(it);
    } else {
      dropped.push_back(c);
    }
  }
  if (!remaining.empty()) {
    return Unproven(r, method,
                    "the rewritten selection carries a new conjunct: " +
                        *remaining.begin());
  }
  if (dropped.empty()) {
    return Unproven(r, method, "no dropped conjunct identified");
  }
  SymbolicSpec spec;
  if (!DecomposeBlock(input, &spec)) {
    return Unproven(r, method,
                    "selection input does not decompose into a σ/×/Get "
                    "block");
  }
  const Schema& frame = input->schema();
  for (const ExprPtr& d : dropped) {
    std::vector<size_t> cols;
    d->CollectColumns(&cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    if (cols.size() != 1) {
      return Unproven(r, method,
                      "dropped conjunct is not single-column: " +
                          CanonicalExprText(d));
    }
    size_t c = cols[0];
    if (c >= frame.num_columns() || frame.column(c).nullable) {
      return Unproven(r, method,
                      "dropped conjunct guards a nullable column (UNKNOWN "
                      "would change the filter): " + CanonicalExprText(d));
    }
    if (d->kind() == ExprKind::kIsNotNull &&
        d->child(0)->kind() == ExprKind::kColumnRef) {
      continue;  // IS NOT NULL on a NOT NULL column is a tautology.
    }
    const SymbolicTable* owner = nullptr;
    for (const SymbolicTable& t : spec.tables) {
      size_t w = t.get->table().schema().num_columns();
      if (c >= t.offset && c < t.offset + w) owner = &t;
    }
    if (owner == nullptr) {
      return Unproven(r, method, "dropped conjunct's column has no table");
    }
    TestPointResult res = CheckImpliesPredicate(
        owner->get->table(), c - owner->offset, d, c, spec.width);
    if (res != TestPointResult::kHolds) {
      return Unproven(r, method,
                      "CHECK-domain test points do not imply the dropped "
                      "conjunct: " + CanonicalExprText(d));
    }
  }
  return Proven(r, method,
                "every dropped conjunct is implied by a declared CHECK for "
                "all storable values of its NOT NULL column");
}

Certificate CertifyEmptyResult(const AppliedRewrite& r) {
  const char* method = "CHECK contradiction";
  const auto* bsel = As<SelectNode>(r.evidence.before);
  const auto* asel = As<SelectNode>(r.evidence.after);
  if (bsel == nullptr || asel == nullptr) {
    return Unproven(r, method, "expected Select → Select(FALSE) evidence");
  }
  if (!asel->predicate()->IsFalseLiteral()) {
    return Unproven(r, method, "after predicate is not FALSE");
  }
  if (!CanonicallyEqualPlans(asel->input(), bsel->input())) {
    return Unproven(r, method, "selection inputs differ");
  }
  SymbolicSpec spec;
  if (!DecomposeBlock(bsel->input(), &spec)) {
    return Unproven(r, method,
                    "selection input does not decompose into a σ/×/Get "
                    "block");
  }
  const Schema& frame = bsel->input()->schema();
  // Group the single-column conjuncts per column; one unsatisfiable
  // group empties the whole selection.
  std::map<size_t, std::vector<ExprPtr>> per_column;
  for (const ExprPtr& c : FlattenAnd(bsel->predicate())) {
    if (c->IsTrueLiteral()) continue;
    std::vector<size_t> cols;
    c->CollectColumns(&cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    if (cols.size() == 1 && cols[0] < frame.num_columns()) {
      per_column[cols[0]].push_back(c);
    }
  }
  for (const auto& [col, preds] : per_column) {
    bool nullable = frame.column(col).nullable;
    if (!nullable) {
      bool is_null_atom = false;
      for (const ExprPtr& p : preds) {
        if (p->kind() == ExprKind::kIsNull &&
            p->child(0)->kind() == ExprKind::kColumnRef) {
          is_null_atom = true;
        }
      }
      if (is_null_atom) {
        return Proven(r, method,
                      "IS NULL on NOT NULL column " +
                          frame.column(col).QualifiedName() +
                          " can never hold");
      }
    }
    const SymbolicTable* owner = nullptr;
    for (const SymbolicTable& t : spec.tables) {
      size_t w = t.get->table().schema().num_columns();
      if (col >= t.offset && col < t.offset + w) owner = &t;
    }
    if (owner == nullptr) continue;
    ExprPtr combined = preds.size() == 1 ? preds[0] : Expr::MakeAnd(preds);
    TestPointResult res =
        CheckExcludesPredicate(owner->get->table(), col - owner->offset,
                               combined, col, spec.width, nullable);
    if (res == TestPointResult::kHolds) {
      return Proven(r, method,
                    "no storable value of " +
                        frame.column(col).QualifiedName() +
                        " satisfies `" + CanonicalExprText(combined) +
                        "` under its declared CHECKs");
    }
  }
  return Unproven(r, method,
                  "could not re-derive the contradiction from declared "
                  "CHECKs");
}

}  // namespace

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kProven:
      return "EQUIV_PROVEN";
    case Verdict::kUnproven:
      return "EQUIV_UNPROVEN";
    case Verdict::kRefuted:
      return "EQUIV_REFUTED";
  }
  return "EQUIV_UNPROVEN";
}

std::string Certificate::ToString() const {
  std::string out = std::string(VerdictName(verdict)) + " " + rule + " [" +
                    method + "]: " + detail;
  if (!witness.empty()) out += "\n" + witness;
  return out;
}

Certificate CertifyRewrite(const AppliedRewrite& rewrite) {
  if (rewrite.evidence.before == nullptr ||
      rewrite.evidence.after == nullptr) {
    Certificate cert;
    cert.verdict = Verdict::kUnproven;
    cert.rule = RewriteRuleIdToString(rewrite.rule);
    cert.method = "evidence";
    cert.detail = "rewrite evidence carries no plan subtrees";
    return cert;
  }
  switch (rewrite.rule) {
    case RewriteRuleId::kRemoveRedundantDistinct:
      return CertifyDistinctRemoval(rewrite);
    case RewriteRuleId::kSubqueryToJoin:
      return CertifySubqueryToJoin(rewrite);
    case RewriteRuleId::kSubqueryToDistinctJoin:
      return CertifySubqueryToDistinctJoin(rewrite);
    case RewriteRuleId::kIntersectToExists:
    case RewriteRuleId::kIntersectAllToExists:
    case RewriteRuleId::kExceptToNotExists:
      return CertifySetOpToExists(rewrite);
    case RewriteRuleId::kJoinToSubquery:
      return CertifyJoinToSubquery(rewrite);
    case RewriteRuleId::kJoinElimination:
      return CertifyJoinElimination(rewrite);
    case RewriteRuleId::kRemoveImpliedPredicate:
      return CertifyPredicateRemoval(rewrite);
    case RewriteRuleId::kDetectEmptyResult:
      return CertifyEmptyResult(rewrite);
    case RewriteRuleId::kEliminateGroupByOnKey:
      return CertifyGroupByElimination(rewrite);
    case RewriteRuleId::kExistsToIntersect:
      return CertifyExistsToIntersect(rewrite);
  }
  Certificate cert;
  cert.verdict = Verdict::kUnproven;
  cert.rule = RewriteRuleIdToString(rewrite.rule);
  cert.method = "dispatch";
  cert.detail = "no certifier for this rule";
  return cert;
}

}  // namespace equiv
}  // namespace uniqopt
