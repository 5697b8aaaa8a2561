#include "verify/verify.h"

#include "obs/metrics.h"
#include "verify/plan_lint.h"

namespace uniqopt {
namespace verify {

const char* AnalyzerName(Analyzer a) {
  switch (a) {
    case Analyzer::kPlanLint:
      return "plan-lint";
    case Analyzer::kEquivProver:
      return "equiv-prover";
  }
  return "unknown";
}

const char* ViolationCodeName(ViolationCode code) {
  switch (code) {
    case ViolationCode::kMissingOptimizedPlan:
      return "missing-optimized-plan";
    case ViolationCode::kDanglingColumnRef:
      return "dangling-column-ref";
    case ViolationCode::kSchemaWidthMismatch:
      return "schema-width-mismatch";
    case ViolationCode::kSchemaTypeMismatch:
      return "schema-type-mismatch";
    case ViolationCode::kSetOpIncompatibleOperands:
      return "setop-incompatible-operands";
    case ViolationCode::kRewriteWithoutProvenCondition:
      return "rewrite-without-proven-condition";
    case ViolationCode::kRewriteMissingSubtrees:
      return "rewrite-missing-subtrees";
    case ViolationCode::kRewriteMissingEvidence:
      return "rewrite-missing-evidence";
    case ViolationCode::kDistinctDroppedWithoutProof:
      return "distinct-dropped-without-proof";
    case ViolationCode::kEquivRefuted:
      return "equiv-refuted";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::string out = std::string("[") + AnalyzerName(analyzer) + "/" +
                    ViolationCodeName(code) + "] " + message;
  if (!context.empty()) {
    out += "\n    ";
    // Indent multi-line context (plan renderings) under the finding.
    for (char c : context) {
      out += c;
      if (c == '\n') out += "    ";
    }
    while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
      out.pop_back();
    }
  }
  return out;
}

std::string VerifyReport::Summary() const {
  std::string out =
      Clean() ? "clean"
              : std::to_string(violations.size()) + " violation(s)";
  out += " (" + std::to_string(nodes_checked) + " node(s)";
  if (!certificates.empty()) {
    out += ", equiv " + std::to_string(equiv_proven) + " proven / " +
           std::to_string(equiv_unproven) + " unproven / " +
           std::to_string(equiv_refuted) + " refuted";
  }
  out += ")";
  return out;
}

std::string VerifyReport::ToString() const {
  std::string out = Summary() + "\n";
  for (const Violation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  for (const equiv::Certificate& cert : certificates) {
    std::string line = cert.ToString();
    // Indent the witness lines under the certificate.
    out += "  ";
    for (char c : line) {
      out += c;
      if (c == '\n') out += "    ";
    }
    out += "\n";
  }
  return out;
}

namespace {

/// The equivalence-prover pass: one certificate per applied rewrite.
/// Refutations become violations; unproven verdicts are honest coverage
/// gaps and only tallied.
void CertifyRewrites(const VerifyInput& input, VerifyReport* report) {
  if (!input.check_equiv || input.rewrites == nullptr) return;
  for (const AppliedRewrite& rw : *input.rewrites) {
    equiv::Certificate cert = equiv::CertifyRewrite(rw);
    switch (cert.verdict) {
      case equiv::Verdict::kProven:
        ++report->equiv_proven;
        break;
      case equiv::Verdict::kUnproven:
        ++report->equiv_unproven;
        break;
      case equiv::Verdict::kRefuted: {
        ++report->equiv_refuted;
        Violation v;
        v.analyzer = Analyzer::kEquivProver;
        v.code = ViolationCode::kEquivRefuted;
        v.message = cert.rule + " [" + cert.method + "]: " + cert.detail;
        v.context = cert.witness;
        report->violations.push_back(std::move(v));
        break;
      }
    }
    report->certificates.push_back(std::move(cert));
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (report->equiv_proven > 0) {
    reg.GetCounter("equiv.proven").Increment(report->equiv_proven);
  }
  if (report->equiv_unproven > 0) {
    reg.GetCounter("equiv.unproven").Increment(report->equiv_unproven);
  }
  if (report->equiv_refuted > 0) {
    reg.GetCounter("equiv.refuted").Increment(report->equiv_refuted);
  }
}

}  // namespace

VerifyReport VerifyPlan(const VerifyInput& input) {
  VerifyReport report;
  LintPlan(input, &report);
  CertifyRewrites(input, &report);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("verify.runs").Increment();
  if (report.Clean()) {
    reg.GetCounter("verify.clean").Increment();
  } else {
    reg.GetCounter("verify.plan.violations")
        .Increment(report.violations.size());
  }
  return report;
}

}  // namespace verify
}  // namespace uniqopt
