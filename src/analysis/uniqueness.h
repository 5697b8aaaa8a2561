#ifndef UNIQOPT_ANALYSIS_UNIQUENESS_H_
#define UNIQOPT_ANALYSIS_UNIQUENESS_H_

#include <string>
#include <vector>

#include "analysis/algorithm1.h"
#include "analysis/properties.h"
#include "common/result.h"
#include "plan/plan.h"

namespace uniqopt {

/// Which detector produced a verdict.
enum class DetectorKind {
  kAlgorithm1,     ///< the paper's §4 algorithm over the spec shape
  kFdPropagation,  ///< general FD/key propagation (handles set ops etc.)
};

/// Verdict of the DISTINCT analysis for one query plan.
struct UniquenessVerdict {
  /// True when the plan carries a DISTINCT at the top.
  bool has_distinct = false;
  /// True when the analyzer proved the DISTINCT redundant (`π_Dist ≡
  /// π_All` for this query, Theorem 1's condition).
  bool distinct_unnecessary = false;
  DetectorKind detector = DetectorKind::kAlgorithm1;
  /// Explanation of an FD-propagation verdict, which records no
  /// ProofTrace.
  std::vector<std::string> trace;
  /// Structured proof (Algorithm 1 detector only; `proof.recorded` tells).
  ProofTrace proof;
  /// On NO from Algorithm 1: the minimal missing facts that would have
  /// flipped the verdict (feeds the constraint advisor).
  std::vector<obs::NearMiss> near_misses;

  /// Multi-line explanation of why the verdict holds: the structured
  /// proof when one was recorded, the FD-propagation trace otherwise.
  std::string ExplainProof() const;
};

/// Tests whether the top-level DISTINCT of `plan` is redundant using the
/// paper's Algorithm 1 (requires the plan to be a select-project-product
/// spec; other shapes yield kUnsupported).
Result<UniquenessVerdict> AnalyzeDistinctAlgorithm1(
    const PlanPtr& plan, const Algorithm1Options& options = {});

/// Tests the same question by general FD/key propagation (DeriveProperties):
/// handles every plan shape, including projections over set operations and
/// semi-joins. Strictly subsumes Algorithm 1's YES set on spec queries
/// when the same switches are enabled.
UniquenessVerdict AnalyzeDistinctFd(const PlanPtr& plan,
                                    const AnalysisOptions& options = {});

/// Combined analyzer: Algorithm 1 first (cheap, and the published
/// artifact), falling back to FD propagation for shapes it cannot see.
UniquenessVerdict AnalyzeDistinct(const PlanPtr& plan,
                                  const Algorithm1Options& options = {});

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_UNIQUENESS_H_
