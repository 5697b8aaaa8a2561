#ifndef REQBENCH_SPAN_LOG_H_
#define REQBENCH_SPAN_LOG_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace reqbench {

/// The spans of the traced run: one root per request, one child per call
/// the benchmark makes into a layer's public entry point.
enum class Layer : uint8_t {
  kRequest,
  kCacheCanonicalize,  ///< cache::CanonicalizeSql
  kCacheLookup,        ///< cache::FingerprintSql + PlanCache::Get
  kCacheInsert,        ///< PlanCache::Put (miss only)
  kParse,              ///< ParseQuery
  kBind,               ///< Binder::Bind
  kAnalyze,            ///< AnalyzeDistinct
  kRewrite,            ///< RewritePlan
  kVerify,             ///< verify::VerifyPlan with the prover off
  kEquivCertify,       ///< equiv::CertifyRewrite, once per applied rewrite
  kLower,              ///< CreatePhysicalPlan
  kRun,                ///< ExecuteToVector
  kTxnBind,            ///< txn::BindDmlSql
  kTxnExecute,         ///< DmlExecutor::Execute (committed statements)
  kTxnReject,          ///< DmlExecutor::Execute (expected rejections)
  kCount,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Metric stem of a layer, e.g. "cache.canonicalize" (the per-layer
/// metric is the stem plus "_ns").
const char* LayerName(Layer layer);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span recorder. Every span feeds the per-layer duration and
/// self-time totals (self time = duration minus the time covered by its
/// child spans); the first `max_kept` spans are also kept verbatim and
/// written out by WriteJsonl once the run is over.
class SpanLog {
 public:
  explicit SpanLog(size_t max_kept) : max_kept_(max_kept) {}

  void Begin(Layer layer, uint32_t request);
  void End();

  uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }
  uint64_t total_ns(Layer layer) const {
    return total_ns_[static_cast<size_t>(layer)];
  }
  uint64_t calls(Layer layer) const {
    return calls_[static_cast<size_t>(layer)];
  }
  size_t kept() const { return kept_.size(); }

  /// One JSON object per kept span: request id, span id, parent span id
  /// (-1 for a root), layer name, start/end in ns since the first span.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct OpenSpan {
    Layer layer;
    uint32_t request;
    int64_t kept_index;  // -1 when not kept
    uint64_t start_ns;
    uint64_t child_ns;
  };
  struct KeptSpan {
    uint32_t request;
    Layer layer;
    int64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  size_t max_kept_;
  std::vector<OpenSpan> stack_;
  std::vector<KeptSpan> kept_;
  std::array<uint64_t, kNumLayers> self_ns_{};
  std::array<uint64_t, kNumLayers> total_ns_{};
  std::array<uint64_t, kNumLayers> calls_{};
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, uint32_t request) : log_(log) {
    if (log_ != nullptr) log_->Begin(layer, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace reqbench

#endif  // REQBENCH_SPAN_LOG_H_
