#include "analysis/uniqueness.h"

namespace uniqopt {

std::string UniquenessVerdict::ExplainProof() const {
  std::string out = "uniqueness verdict: ";
  if (!has_distinct) {
    out += distinct_unnecessary
               ? "output is duplicate-free (no DISTINCT present)"
               : "no DISTINCT present";
  } else {
    out += distinct_unnecessary ? "DISTINCT is unnecessary"
                                : "DISTINCT is required (not proven redundant)";
  }
  out += "\ndetector: ";
  out += detector == DetectorKind::kAlgorithm1 ? "Algorithm 1 (paper §4)"
                                               : "FD/key propagation";
  out += "\n";
  if (proof.recorded) {
    out += proof.ToText();
  } else {
    for (const std::string& line : trace) out += line + "\n";
  }
  return out;
}

Result<UniquenessVerdict> AnalyzeDistinctAlgorithm1(
    const PlanPtr& plan, const Algorithm1Options& options) {
  UniquenessVerdict verdict;
  verdict.detector = DetectorKind::kAlgorithm1;
  const ProjectNode* project = As<ProjectNode>(plan);
  if (project == nullptr) {
    return Status::Unsupported("plan does not end in a projection");
  }
  verdict.has_distinct = project->mode() == DuplicateMode::kDist;
  UNIQOPT_ASSIGN_OR_RETURN(SpecShape shape, ExtractSpecShape(plan));
  UNIQOPT_ASSIGN_OR_RETURN(Algorithm1Result result,
                           RunAlgorithm1(shape, options));
  verdict.distinct_unnecessary = result.yes;
  verdict.proof = std::move(result.proof);
  // Missing facts only matter when there is a DISTINCT to eliminate.
  if (verdict.has_distinct) {
    verdict.near_misses = std::move(result.near_misses);
  }
  return verdict;
}

UniquenessVerdict AnalyzeDistinctFd(const PlanPtr& plan,
                                    const AnalysisOptions& options) {
  UniquenessVerdict verdict;
  verdict.detector = DetectorKind::kFdPropagation;
  PlanPtr all_mode = plan;
  if (const ProjectNode* project = As<ProjectNode>(plan)) {
    verdict.has_distinct = project->mode() == DuplicateMode::kDist;
    if (verdict.has_distinct) {
      // Ask whether the *ALL-mode* projection is already duplicate-free;
      // analyzing the Dist node itself would trivially report a key.
      all_mode = ProjectNode::Make(project->input(), DuplicateMode::kAll,
                                   project->columns());
    }
    // For ALL-mode projections the question "would a DISTINCT here be
    // redundant" is still well-defined (and what Algorithm 1 answers).
  } else if (const SetOpNode* setop = As<SetOpNode>(plan);
             setop != nullptr && setop->mode() == DuplicateMode::kDist) {
    verdict.has_distinct = true;
    // Corollary 2 direction: ∩_Dist ≡ ∩_All when either operand is
    // duplicate-free (and likewise the result of −_All over a
    // duplicate-free left operand has no duplicates).
    DerivedProperties left = DeriveProperties(setop->left(), options);
    DerivedProperties right = DeriveProperties(setop->right(), options);
    bool dup_free = setop->op() == SetOpAlgebra::kIntersect
                        ? (left.IsDuplicateFree() || right.IsDuplicateFree())
                        : left.IsDuplicateFree();
    verdict.distinct_unnecessary = dup_free;
    verdict.trace.push_back(
        std::string("set operation operands duplicate-free: left=") +
        (left.IsDuplicateFree() ? "yes" : "no") + " right=" +
        (right.IsDuplicateFree() ? "yes" : "no"));
    return verdict;
  }
  // Projections and other shapes (bare set-op in ALL mode, Exists, ...):
  // analyze the plan's own output.
  DerivedProperties props = DeriveProperties(all_mode, options);
  verdict.distinct_unnecessary = props.IsDuplicateFree();
  verdict.trace.push_back("derived properties: " + props.ToString());
  verdict.trace.push_back(verdict.distinct_unnecessary
                              ? "derived key exists: duplicates impossible"
                              : "no derived key: duplicates possible");
  return verdict;
}

UniquenessVerdict AnalyzeDistinct(const PlanPtr& plan,
                                  const Algorithm1Options& options) {
  Result<UniquenessVerdict> a1 = AnalyzeDistinctAlgorithm1(plan, options);
  if (a1.ok() && (a1->distinct_unnecessary || !a1->has_distinct)) {
    return *a1;
  }
  UniquenessVerdict fd = AnalyzeDistinctFd(plan, options);
  if (a1.ok() && !fd.distinct_unnecessary) {
    // Keep the (more readable) Algorithm 1 trace for NO verdicts.
    return *a1;
  }
  return fd;
}

}  // namespace uniqopt
