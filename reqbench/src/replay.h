#ifndef REQBENCH_REPLAY_H_
#define REQBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cache/plan_cache.h"
#include "exec/operator.h"
#include "span_log.h"
#include "storage/table.h"
#include "txn/dml_executor.h"
#include "uniqopt/optimizer.h"
#include "workloads.h"

namespace reqbench {

/// The traced run's request path. It calls each layer's public entry
/// point itself, in the order Optimizer::PrepareShared → Execute and
/// DmlExecutor::ExecuteSql use them, so every call can carry its own
/// span. It copies the facade's settings and keeps a plan cache of its
/// own with the facade's options, so hits, misses and invalidations
/// follow the same request sequence.
class Replayer {
 public:
  Replayer(uniqopt::Database* db, const uniqopt::Optimizer& facade);

  /// Runs one request. With `log` non-null every layer call is a span of
  /// request `id` (the caller opens the root span).
  Outcome Run(const Request& request, SpanLog* log, uint32_t id);

  /// Zeroes hits, misses and executor counters (after warm-up).
  void ResetCounts() {
    hits_ = 0;
    misses_ = 0;
    exec_stats_.Reset();
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Executor work counters summed over every read run so far.
  const uniqopt::ExecStats& exec_stats() const { return exec_stats_; }

 private:
  using Entry = std::shared_ptr<const uniqopt::PreparedQuery>;

  uniqopt::Result<Entry> Prepare(const std::string& sql, SpanLog* log,
                                 uint32_t id);
  uniqopt::Result<Entry> PrepareMiss(const std::string& sql, SpanLog* log,
                                     uint32_t id);
  uniqopt::Status Execute(const uniqopt::PreparedQuery& query,
                          const Request& request, SpanLog* log, uint32_t id,
                          std::vector<uniqopt::Row>* rows);
  Outcome Write(const Request& request, SpanLog* log, uint32_t id);

  uniqopt::Database* db_;
  const uniqopt::Optimizer& facade_;
  uniqopt::cache::PlanCache cache_;
  uint64_t salt_ = 0;
  uniqopt::txn::DmlExecutor dml_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uniqopt::ExecStats exec_stats_;
};

}  // namespace reqbench

#endif  // REQBENCH_REPLAY_H_
