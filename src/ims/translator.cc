#include "ims/translator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "analysis/shape.h"
#include "common/string_util.h"
#include "expr/normalize.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace uniqopt {
namespace ims {

std::string DliProgram::ToString() const {
  std::string out = "DliProgram {\n  root loop";
  if (root_qual.has_value()) {
    out += " (" + root_qual->field + " " +
           CompareOpToString(root_qual->op) + " " +
           (root_qual->host_var.has_value() ? ":param"
                                            : root_qual->constant.ToString()) +
           ")";
  }
  out += "\n";
  for (const ChildStep& step : steps) {
    out += step.exists_only ? "  exists GNP " : "  emit-per-match GNP ";
    out += step.segment;
    if (step.qual.has_value()) {
      out += " (" + step.qual->field + " " +
             CompareOpToString(step.qual->op) + " " +
             (step.qual->host_var.has_value()
                  ? ":param"
                  : step.qual->constant.ToString()) +
             ")";
    }
    out += "\n";
  }
  if (post_filter != nullptr) {
    out += "  post-filter: " + post_filter->ToString() + "\n";
  }
  if (distinct) out += "  post-distinct (sort)\n";
  out += "}";
  return out;
}

namespace {

/// View binding of one FROM table: which segment type it maps to and
/// where its columns live in the product ("view") row.
struct ViewBinding {
  const SegmentTypeDef* type = nullptr;
  bool is_root = false;
  size_t offset = 0;
  size_t width = 0;
};

/// Pattern: `col op <literal or host var>` → QualTemplate on a named
/// field, when `col` belongs to `binding` and names a segment field.
bool MatchQual(const ExprPtr& conj, const ViewBinding& binding,
               QualTemplate* out) {
  if (conj->kind() != ExprKind::kComparison) return false;
  const ExprPtr& l = conj->child(0);
  const ExprPtr& r = conj->child(1);
  auto match = [&](const ExprPtr& col, const ExprPtr& value,
                   CompareOp op) -> bool {
    if (col->kind() != ExprKind::kColumnRef) return false;
    size_t idx = col->column_index();
    if (idx < binding.offset || idx >= binding.offset + binding.width) {
      return false;
    }
    size_t view_ordinal = idx - binding.offset;
    // For a child view, ordinal 0 is the inherited root key — not a
    // field of the segment itself; cannot be an SSA qualification.
    size_t field;
    if (binding.is_root) {
      field = view_ordinal;
    } else {
      if (view_ordinal == 0) return false;
      field = view_ordinal - 1;
    }
    if (field >= binding.type->fields.size()) return false;
    out->field = binding.type->fields[field].name;
    out->op = op;
    if (value->kind() == ExprKind::kLiteral && !value->literal().is_null()) {
      out->constant = value->literal();
      out->host_var.reset();
      return true;
    }
    if (value->kind() == ExprKind::kHostVar) {
      out->host_var = value->host_var_index();
      return true;
    }
    return false;
  };
  if (match(l, r, conj->compare_op())) return true;
  return match(r, l, FlipCompareOp(conj->compare_op()));
}

/// Is `conj` the hierarchy join predicate root.key = child.view[0]?
bool IsHierarchyJoin(const ExprPtr& conj, const ViewBinding& root,
                     const ViewBinding& child) {
  if (conj->kind() != ExprKind::kComparison ||
      conj->compare_op() != CompareOp::kEq) {
    return false;
  }
  const ExprPtr& l = conj->child(0);
  const ExprPtr& r = conj->child(1);
  if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kColumnRef) {
    return false;
  }
  size_t root_key = root.offset +
                    static_cast<size_t>(root.type->key_field);
  size_t child_key = child.offset;  // inherited root key column
  size_t a = l->column_index();
  size_t b = r->column_index();
  return (a == root_key && b == child_key) ||
         (b == root_key && a == child_key);
}

Result<ViewBinding> BindTable(const ImsDatabase& db,
                              const SpecShape::BaseTable& bt) {
  ViewBinding binding;
  auto type = db.def().GetType(bt.get->table().name());
  if (!type.ok()) {
    return Status::Unsupported("table " + bt.get->table().name() +
                               " is not a view of the hierarchy");
  }
  binding.type = *type;
  binding.is_root = (*type)->parent.empty();
  binding.offset = bt.offset;
  binding.width = bt.get->schema().num_columns();
  // Sanity: view arity = fields (+1 inherited key for children).
  size_t expected =
      binding.type->fields.size() + (binding.is_root ? 0 : 1);
  if (binding.width != expected) {
    return Status::Unsupported("table " + bt.get->table().name() +
                               " does not match the segment view layout");
  }
  return binding;
}

}  // namespace

Result<DliProgram> TranslatePlan(const ImsDatabase& db, const PlanPtr& plan) {
  UNIQOPT_ASSIGN_OR_RETURN(SpecShape shape, ExtractSpecShape(plan));
  if (shape.tables.empty() || shape.tables.size() > 2) {
    return Status::Unsupported(
        "gateway supports one or two hierarchy views per query");
  }

  DliProgram program;
  program.distinct = shape.project->mode() == DuplicateMode::kDist;
  program.output_columns = shape.project->columns();

  std::vector<ViewBinding> bindings;
  const ViewBinding* root_binding = nullptr;
  const ViewBinding* child_binding = nullptr;
  for (const SpecShape::BaseTable& bt : shape.tables) {
    UNIQOPT_ASSIGN_OR_RETURN(ViewBinding b, BindTable(db, bt));
    bindings.push_back(b);
    program.layout.push_back(b.type->name);
  }
  for (const ViewBinding& b : bindings) {
    if (b.is_root) {
      if (root_binding != nullptr) {
        return Status::Unsupported("self-join of the root view");
      }
      root_binding = &b;
    } else {
      if (child_binding != nullptr) {
        return Status::Unsupported(
            "gateway supports at most one child view per query");
      }
      child_binding = &b;
    }
  }

  // Partition predicates: hierarchy join / SSA qualifications / post
  // filter (the post-processing layer).
  std::vector<ExprPtr> post;
  bool join_seen = false;
  for (const ExprPtr& conj : shape.predicates) {
    if (root_binding != nullptr && child_binding != nullptr &&
        IsHierarchyJoin(conj, *root_binding, *child_binding)) {
      join_seen = true;  // realized by the parent-child structure
      continue;
    }
    QualTemplate qual;
    if (root_binding != nullptr && !program.root_qual.has_value() &&
        MatchQual(conj, *root_binding, &qual)) {
      program.root_qual = std::move(qual);
      continue;
    }
    post.push_back(conj);
  }
  if (root_binding != nullptr && child_binding != nullptr && !join_seen) {
    return Status::Unsupported(
        "root ⋈ child query must join on the hierarchy key");
  }

  // Emitting child step (join semantics) with its SSA qualification.
  if (child_binding != nullptr) {
    ChildStep step;
    step.segment = child_binding->type->name;
    std::vector<ExprPtr> remaining;
    for (ExprPtr& conj : post) {
      QualTemplate qual;
      if (!step.qual.has_value() && MatchQual(conj, *child_binding, &qual)) {
        step.qual = std::move(qual);
      } else {
        remaining.push_back(std::move(conj));
      }
    }
    post = std::move(remaining);
    program.steps.push_back(std::move(step));
  }

  // Existential filters → exists-only probes (the §6 nested strategy).
  size_t root_width = root_binding != nullptr ? root_binding->width : 0;
  for (const ExistsNode* exists : shape.exists_filters) {
    if (exists->negated()) {
      return Status::Unsupported("NOT EXISTS is outside the gateway subset");
    }
    if (root_binding == nullptr || shape.tables.size() != 1) {
      return Status::Unsupported(
          "existential probes require a root-only outer query");
    }
    UNIQOPT_ASSIGN_OR_RETURN(SpecShape inner,
                             ExtractProductShape(exists->sub()));
    if (inner.tables.size() != 1) {
      return Status::Unsupported("subquery must probe one child view");
    }
    SpecShape::BaseTable inner_bt = inner.tables[0];
    UNIQOPT_ASSIGN_OR_RETURN(ViewBinding inner_binding,
                             BindTable(db, inner_bt));
    if (inner_binding.is_root) {
      return Status::Unsupported("subquery must probe a child view");
    }
    ChildStep step;
    step.segment = inner_binding.type->name;
    step.exists_only = true;
    // Correlation must be the hierarchy join; inner predicates may
    // contribute one SSA qualification.
    ViewBinding combined_child = inner_binding;
    combined_child.offset = root_width;  // child follows outer in concat
    bool corr_join = false;
    for (const ExprPtr& conj : FlattenAnd(exists->correlation())) {
      if (IsHierarchyJoin(conj, *root_binding, combined_child)) {
        corr_join = true;
        continue;
      }
      QualTemplate qual;
      if (!step.qual.has_value() &&
          MatchQual(conj, combined_child, &qual)) {
        step.qual = std::move(qual);
        continue;
      }
      return Status::Unsupported(
          "untranslatable correlation conjunct: " + conj->ToString());
    }
    ViewBinding local_child = inner_binding;
    local_child.offset = 0;
    for (const ExprPtr& conj : inner.predicates) {
      QualTemplate qual;
      if (!step.qual.has_value() && MatchQual(conj, local_child, &qual)) {
        step.qual = std::move(qual);
        continue;
      }
      return Status::Unsupported("untranslatable subquery conjunct: " +
                                 conj->ToString());
    }
    if (!corr_join) {
      return Status::Unsupported(
          "subquery correlation must be the hierarchy join");
    }
    program.steps.push_back(std::move(step));
  }

  if (!post.empty()) {
    program.post_filter = Expr::MakeAnd(std::move(post));
  }
  // Two probes of the same child type would fight over the GNP cursor.
  std::set<std::string> probed;
  for (const ChildStep& step : program.steps) {
    if (!probed.insert(ToUpperAscii(step.segment)).second) {
      return Status::Unsupported(
          "multiple probes of one child segment type are not supported");
    }
  }
  return program;
}

namespace {

/// One-line program summary for the flight recorder (\history shows it
/// next to SQL text from the relational path).
std::string ProgramSummary(const DliProgram& program) {
  std::string out = "dl/i program: root";
  if (program.root_qual.has_value()) out += "(qualified)";
  for (const ChildStep& step : program.steps) {
    out += step.exists_only ? " exists:" : " emit:";
    out += step.segment;
  }
  out += " -> " + Join(program.layout, "+");
  if (program.distinct) out += " distinct";
  return out;
}

}  // namespace

GatewayResult RunProgram(const ImsDatabase& db, const DliProgram& program,
                         const std::vector<Value>& params) {
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("ims.gateway.run.ns");
  obs::ScopedLatencyTimer timer(&latency);
  auto run_start = std::chrono::steady_clock::now();
  GatewayResult result;
  DliSession dli(&db);
  const SegmentTypeDef& root_type = db.def().root();

  Ssa root_ssa = Ssa::Unqualified(root_type.name);
  if (program.root_qual.has_value()) {
    root_ssa.qual = program.root_qual->Resolve(params);
  }

  // Which layout slot (if any) is a child view, and which step emits.
  const ChildStep* emit_step = nullptr;
  for (const ChildStep& step : program.steps) {
    if (!step.exists_only) emit_step = &step;
  }

  auto assemble_and_emit = [&](const Segment* root,
                               const Segment* child_match) {
    Row view;
    for (const std::string& seg : program.layout) {
      if (EqualsIgnoreCase(seg, root_type.name)) {
        for (size_t i = 0; i < root->fields.size(); ++i) {
          view.Append(root->fields[i]);
        }
      } else {
        view.Append(root->KeyValue());  // inherited root key
        for (size_t i = 0; i < child_match->fields.size(); ++i) {
          view.Append(child_match->fields[i]);
        }
      }
    }
    if (program.post_filter != nullptr &&
        program.post_filter->EvaluatePredicate(view, params) !=
            Tribool::kTrue) {
      return;
    }
    result.rows.push_back(view.Project(program.output_columns));
  };

  DliStatus status = dli.GU(root_ssa);
  while (status == DliStatus::kOk) {
    const Segment* root = dli.parent_position();
    // Existence probes first (cheap rejection).
    bool all_exist = true;
    for (const ChildStep& step : program.steps) {
      if (!step.exists_only) continue;
      Ssa ssa = Ssa::Unqualified(step.segment);
      if (step.qual.has_value()) ssa.qual = step.qual->Resolve(params);
      if (dli.GNP(ssa) != DliStatus::kOk) {
        all_exist = false;
        break;
      }
    }
    if (all_exist) {
      if (emit_step == nullptr) {
        assemble_and_emit(root, nullptr);
      } else {
        Ssa ssa = Ssa::Unqualified(emit_step->segment);
        if (emit_step->qual.has_value()) {
          ssa.qual = emit_step->qual->Resolve(params);
        }
        DliStatus child_status = dli.GNP(ssa);
        while (child_status == DliStatus::kOk) {
          assemble_and_emit(root, dli.current());
          child_status = dli.GNP(ssa);
        }
      }
    }
    status = dli.GN(root_ssa);
  }

  // Post-processing layer: duplicate elimination by sort.
  if (program.distinct) {
    std::sort(result.rows.begin(), result.rows.end());
    result.rows.erase(
        std::unique(result.rows.begin(), result.rows.end(),
                    [](const Row& a, const Row& b) {
                      return a.NullSafeEquals(b);
                    }),
        result.rows.end());
  }
  result.stats = dli.stats();

  obs::QueryRecord rec;
  rec.rows_out = result.rows.size();
  rec.rows_scanned =
      static_cast<uint64_t>(result.stats.segments_visited);
  rec.total_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - run_start)
          .count());
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "ims.gateway";
  part->query = ProgramSummary(program);
  part->plan_hash = obs::FingerprintPlanText(program.ToString());
  part->proof_summary = result.stats.ToString();
  part->phase_ns.emplace_back("run", rec.total_ns);
  rec.prepared = std::move(part);
  obs::QueryRecorder::Global().Record(std::move(rec));
  return result;
}

std::string ExplainAnalyzeProgram(const ImsDatabase& db,
                                  const DliProgram& program,
                                  const std::vector<Value>& params,
                                  GatewayResult* result_out) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::CounterSnapshot before = reg.Counters();
  GatewayResult result = RunProgram(db, program, params);
  obs::CounterSnapshot after = reg.Counters();

  std::string out = "-- dl/i program --\n" + program.ToString() + "\n";
  out += "-- dl/i stats --\n  " + result.stats.ToString() + "\n";
  out += "-- metrics delta --\n";
  std::string delta = obs::CounterDeltaToText(before, after);
  out += delta.empty() ? std::string("  (none)\n") : delta;
  out += "-- result --\n  " + std::to_string(result.rows.size()) +
         " row(s)\n";
  if (result_out != nullptr) *result_out = std::move(result);
  return out;
}

}  // namespace ims
}  // namespace uniqopt
