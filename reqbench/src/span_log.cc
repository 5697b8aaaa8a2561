#include "span_log.h"

#include <cstdio>
#include <fstream>

namespace reqbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kCacheCanonicalize:
      return "cache.canonicalize";
    case Layer::kCacheLookup:
      return "cache.lookup";
    case Layer::kCacheInsert:
      return "cache.insert";
    case Layer::kParse:
      return "parser.parse";
    case Layer::kBind:
      return "plan.bind";
    case Layer::kAnalyze:
      return "analysis.analyze";
    case Layer::kRewrite:
      return "rewrite.rewrite";
    case Layer::kVerify:
      return "verify.verify";
    case Layer::kEquivCertify:
      return "equiv.certify";
    case Layer::kLower:
      return "exec.lower";
    case Layer::kRun:
      return "exec.run";
    case Layer::kTxnBind:
      return "txn.bind";
    case Layer::kTxnExecute:
      return "txn.execute";
    case Layer::kTxnReject:
      return "txn.reject";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

void SpanLog::Begin(Layer layer, uint32_t request) {
  int64_t kept_index = -1;
  if (kept_.size() < max_kept_) {
    int64_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept_index = static_cast<int64_t>(kept_.size());
    kept_.push_back(KeptSpan{request, layer, parent, 0, 0});
  }
  // The clock is read last so the bookkeeping above is not charged to
  // the span.
  stack_.push_back(OpenSpan{layer, request, kept_index, NowNs(), 0});
}

void SpanLog::End() {
  const uint64_t end = NowNs();
  OpenSpan span = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - span.start_ns;
  const size_t slot = static_cast<size_t>(span.layer);
  total_ns_[slot] += duration;
  self_ns_[slot] += duration > span.child_ns ? duration - span.child_ns : 0;
  ++calls_[slot];
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (span.kept_index >= 0) {
    KeptSpan& kept = kept_[static_cast<size_t>(span.kept_index)];
    kept.start_ns = span.start_ns;
    kept.end_ns = end;
  }
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const KeptSpan& s = kept_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"request\":%u,\"span\":%zu,\"parent\":%lld,"
                  "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                  s.request, i, static_cast<long long>(s.parent),
                  LayerName(s.layer),
                  static_cast<unsigned long long>(s.start_ns - origin),
                  static_cast<unsigned long long>(s.end_ns - origin));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace reqbench
