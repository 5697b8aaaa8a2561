#ifndef UNIQOPT_EXEC_PARALLEL_H_
#define UNIQOPT_EXEC_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/join_hash_table.h"
#include "exec/operator.h"
#include "exec/planner.h"
#include "exec/profile.h"
#include "expr/expr.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace uniqopt {

/// Morsel-driven scan parallelism (Leis et al. style, scaled to this
/// engine): the driving base-table scan is split into fixed-size row
/// ranges ("morsels") claimed from an atomic cursor, so workers
/// self-balance — a worker stalled on an expensive morsel simply claims
/// fewer of them.
class MorselCursor {
 public:
  static constexpr size_t kDefaultMorselRows = 4096;

  explicit MorselCursor(size_t total_rows,
                        size_t morsel_rows = kDefaultMorselRows)
      : total_(total_rows),
        morsel_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows) {}

  /// Claims the next unclaimed morsel into [*begin, *end); returns
  /// false when the table is exhausted.
  bool Claim(size_t* begin, size_t* end) {
    size_t b = next_.fetch_add(morsel_, std::memory_order_relaxed);
    if (b >= total_) return false;
    *begin = b;
    *end = std::min(b + morsel_, total_);
    return true;
  }

  size_t total_rows() const { return total_; }
  size_t morsel_rows() const { return morsel_; }

 private:
  const size_t total_;
  const size_t morsel_;
  std::atomic<size_t> next_{0};
};

/// The parallel replacement for the driving TableScanOp: every claimed
/// morsel is handed out as a zero-copy borrowed batch (or iterated
/// tuple-at-a-time). All workers share one cursor; each op instance
/// belongs to one worker.
class MorselScanOp final : public Operator {
 public:
  /// All workers receive the SAME snapshot (pinned once by the
  /// coordinator before sizing the cursor), so a DML commit racing the
  /// query can never tear the morsel range or mix table versions.
  MorselScanOp(TableSnapshot snapshot, Schema schema, MorselCursor* cursor)
      : Operator(std::move(schema)),
        snapshot_(std::move(snapshot)),
        cursor_(cursor) {}

  Status Open(ExecContext*) override {
    begin_ = end_ = 0;
    return Status::OK();
  }

  Result<bool> Next(ExecContext* ctx, Row* row) override {
    while (begin_ >= end_) {
      if (!cursor_->Claim(&begin_, &end_)) return false;
      ++ctx->stats.morsels_claimed;
    }
    *row = snapshot_->rows[begin_++];
    ++ctx->stats.rows_scanned;
    return true;
  }

  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override {
    out->Reset();
    while (begin_ >= end_) {
      if (!cursor_->Claim(&begin_, &end_)) return false;
      ++ctx->stats.morsels_claimed;
    }
    std::span<const Row> run = snapshot_->rows.RunFrom(begin_);
    size_t n = std::min({out->capacity(), end_ - begin_, run.size()});
    // No pin: the driving scan feeds only the probe side, never a join
    // build, and a pin per batch would bounce the shared snapshot's
    // reference count between the workers' cores.
    out->Borrow(run.data(), n);
    begin_ += n;
    ctx->stats.rows_scanned += n;
    return true;
  }

  void Close() override {}
  std::string name() const override { return "MorselScan"; }

 private:
  TableSnapshot snapshot_;
  MorselCursor* cursor_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// Hooks handed to the Lowering by the parallel executor. All worker
/// trees are lowered serially on the coordinator before any worker
/// thread starts, so the maps need no locking.
struct ParallelLoweringHooks {
  /// The driving GetNode (pointer identity — plan nodes are immutable
  /// and shared across the worker lowerings); lowered to a MorselScanOp
  /// instead of a TableScanOp.
  const PlanNode* driver = nullptr;
  /// One snapshot shared by every worker's MorselScanOp — pinned before
  /// the cursor is sized so ranges and rows come from the same version.
  TableSnapshot driver_snapshot;
  MorselCursor* cursor = nullptr;
  /// Shared hash-join builds keyed by the SelectNode that lowers to the
  /// join; created lazily by the first worker lowering, reused by the
  /// rest.
  std::unordered_map<const PlanNode*, std::shared_ptr<SharedJoinBuild>>
      shared_builds;
};

/// Attempts morsel-driven parallel execution of `plan` at
/// `options.dop` workers. Returns std::nullopt when the plan shape is
/// not supported (no driving base-table scan, or a pipeline breaker
/// mid-pipeline) — the caller then falls back to the serial executor.
/// On success the caller's ctx->stats holds the merged per-worker
/// counters, and `profile` (when non-null) carries the per-worker
/// Gather section.
Result<std::optional<std::vector<Row>>> TryParallelExecute(
    const PlanPtr& plan, const Database& db, ExecContext* ctx,
    const PhysicalOptions& options, ExecProfile* profile = nullptr);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_PARALLEL_H_
