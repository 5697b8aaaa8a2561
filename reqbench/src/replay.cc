#include "replay.h"

#include <optional>
#include <utility>
#include <vector>

#include "analysis/uniqueness.h"
#include "cache/fingerprint.h"
#include "common/string_util.h"
#include "equiv/equiv.h"
#include "exec/planner.h"
#include "obs/advisor.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "rewrite/rewriter.h"
#include "txn/dml.h"
#include "verify/verify.h"

namespace reqbench {

using uniqopt::PreparedQuery;
using uniqopt::Result;
using uniqopt::Status;

Replayer::Replayer(uniqopt::Database* db, const uniqopt::Optimizer& facade)
    : db_(db),
      facade_(facade),
      cache_(facade.plan_cache()->options()),
      dml_(db) {
  // The facade's cache-key salt: the verify/equiv mode bits, the
  // what-if salt and the physical defaults.
  salt_ = (facade.verify_plans() ? 1 : 0) | (facade.check_equiv() ? 4 : 0) |
          facade.extra_fingerprint_salt();
  salt_ = uniqopt::cache::Fnv1aMix(salt_,
                                   facade.default_physical().CacheSalt());
}

Outcome Replayer::Run(const Request& request, SpanLog* log, uint32_t id) {
  if (request.op != Op::kRead) return Write(request, log, id);
  Outcome out;
  auto entry = Prepare(request.sql, log, id);
  if (!entry.ok()) {
    out.status = entry.status();
    return out;
  }
  out.prepared = std::move(*entry);
  out.status = Execute(*out.prepared, request, log, id, &out.rows);
  return out;
}

Result<Replayer::Entry> Replayer::Prepare(const std::string& sql,
                                          SpanLog* log, uint32_t id) {
  const uint64_t version = db_->catalog().version();
  std::optional<Result<uniqopt::cache::CanonicalSql>> canonical;
  {
    ScopedSpan span(log, Layer::kCacheCanonicalize, id);
    canonical.emplace(uniqopt::cache::CanonicalizeSql(sql));
  }
  if (!canonical->ok()) return canonical->status();
  uint64_t fingerprint = 0;
  Entry entry;
  {
    ScopedSpan span(log, Layer::kCacheLookup, id);
    uniqopt::cache::FingerprintOptions options;
    options.salt = salt_;
    fingerprint = uniqopt::cache::FingerprintSql(**canonical, version, options);
    entry = cache_.Get(fingerprint, version);
  }
  if (entry != nullptr) {
    ++hits_;
    return entry;
  }
  ++misses_;
  UNIQOPT_ASSIGN_OR_RETURN(entry, PrepareMiss(sql, log, id));
  {
    // Entries are far below the cache's byte budget, so the size passed
    // along does not change what is evicted.
    ScopedSpan span(log, Layer::kCacheInsert, id);
    cache_.Put(fingerprint, version, entry, sizeof(PreparedQuery) + sql.size());
  }
  return entry;
}

Result<Replayer::Entry> Replayer::PrepareMiss(const std::string& sql,
                                              SpanLog* log, uint32_t id) {
  auto out = std::make_shared<PreparedQuery>();
  uniqopt::QueryPtr parsed;
  {
    ScopedSpan span(log, Layer::kParse, id);
    auto r = uniqopt::ParseQuery(sql);
    if (!r.ok()) return r.status();
    parsed = std::move(*r);
  }
  uniqopt::BoundQuery bound;
  {
    ScopedSpan span(log, Layer::kBind, id);
    uniqopt::Binder binder(&db_->catalog());
    auto r = binder.Bind(*parsed);
    if (!r.ok()) return r.status();
    bound = std::move(*r);
  }
  uniqopt::RewriteOptions options = facade_.rewrite_options();
  if (facade_.advise() && uniqopt::obs::AdvisorStore::Global().enabled()) {
    options.analysis.collect_near_misses = true;
  }
  {
    ScopedSpan span(log, Layer::kAnalyze, id);
    out->analysis = uniqopt::AnalyzeDistinct(bound.plan, options.analysis);
  }
  uniqopt::RewriteResult rewritten;
  {
    ScopedSpan span(log, Layer::kRewrite, id);
    auto r = uniqopt::RewritePlan(bound.plan, options);
    if (!r.ok()) return r.status();
    rewritten = std::move(*r);
  }
  out->sql = sql;
  out->original_plan = std::move(bound.plan);
  out->optimized_plan = std::move(rewritten.plan);
  out->rewrites = std::move(rewritten.applied);
  out->host_vars = std::move(bound.host_vars);
  if (facade_.verify_plans()) {
    {
      ScopedSpan span(log, Layer::kVerify, id);
      uniqopt::verify::VerifyInput input;
      input.original = out->original_plan;
      input.optimized = out->optimized_plan;
      input.rewrites = &out->rewrites;
      input.analysis = &out->analysis;
      input.options = facade_.rewrite_options().analysis;
      input.check_equiv = false;
      out->verification = uniqopt::verify::VerifyPlan(input);
      out->verified = true;
    }
    if (facade_.check_equiv()) {
      ScopedSpan span(log, Layer::kEquivCertify, id);
      uniqopt::verify::VerifyReport& report = out->verification;
      for (const uniqopt::AppliedRewrite& rewrite : out->rewrites) {
        uniqopt::equiv::Certificate cert = uniqopt::equiv::CertifyRewrite(rewrite);
        switch (cert.verdict) {
          case uniqopt::equiv::Verdict::kProven:
            ++report.equiv_proven;
            break;
          case uniqopt::equiv::Verdict::kUnproven:
            ++report.equiv_unproven;
            break;
          case uniqopt::equiv::Verdict::kRefuted: {
            ++report.equiv_refuted;
            uniqopt::verify::Violation v;
            v.analyzer = uniqopt::verify::Analyzer::kEquivProver;
            v.code = uniqopt::verify::ViolationCode::kEquivRefuted;
            v.message = cert.rule + ": " + cert.detail;
            report.violations.push_back(std::move(v));
            break;
          }
        }
        report.certificates.push_back(std::move(cert));
      }
    }
  }
  return Entry(std::move(out));
}

Status Replayer::Execute(const PreparedQuery& query, const Request& request,
                         SpanLog* log, uint32_t id,
                         std::vector<uniqopt::Row>* rows) {
  uniqopt::ExecContext ctx;
  ctx.params.resize(query.host_vars.size());
  for (const auto& [name, value] : request.params) {
    bool found = false;
    for (size_t i = 0; i < query.host_vars.size() && !found; ++i) {
      if (uniqopt::EqualsIgnoreCase(query.host_vars[i].name, name)) {
        ctx.params[i] = value;
        found = true;
      }
    }
    if (!found) return Status::InvalidArgument("unknown host variable: " + name);
  }
  const uniqopt::PhysicalOptions physical =
      query.cost_based ? query.chosen_physical : uniqopt::PhysicalOptions{};
  ctx.batch_size = physical.batch_size;
  uniqopt::OperatorPtr root;
  {
    ScopedSpan span(log, Layer::kLower, id);
    auto r = uniqopt::CreatePhysicalPlan(query.optimized_plan, *db_, physical);
    if (!r.ok()) return r.status();
    root = std::move(*r);
  }
  {
    ScopedSpan span(log, Layer::kRun, id);
    auto r = uniqopt::ExecuteToVector(root.get(), &ctx);
    root.reset();
    if (!r.ok()) return r.status();
    *rows = std::move(*r);
  }
  exec_stats_.Merge(ctx.stats);
  return Status::OK();
}

Outcome Replayer::Write(const Request& request, SpanLog* log, uint32_t id) {
  Outcome out;
  if (!request.params.empty()) {
    out.status = Status::InvalidArgument("replayed DML takes literals only");
    return out;
  }
  std::optional<Result<uniqopt::txn::BoundDml>> bound;
  {
    ScopedSpan span(log, Layer::kTxnBind, id);
    bound.emplace(uniqopt::txn::BindDmlSql(db_, request.sql));
  }
  if (!bound->ok()) {
    out.status = bound->status();
    return out;
  }
  // The rejected duplicate gets its own span: its cost is the price of
  // finding the violation, not of committing.
  const Layer layer =
      request.op == Op::kDuplicate ? Layer::kTxnReject : Layer::kTxnExecute;
  std::optional<Result<uniqopt::txn::DmlResult>> result;
  {
    ScopedSpan span(log, layer, id);
    result.emplace(dml_.Execute(**bound));
  }
  if (result->ok()) {
    out.rows_affected = (*result)->rows_affected;
  } else {
    out.status = result->status();
  }
  return out;
}

}  // namespace reqbench
