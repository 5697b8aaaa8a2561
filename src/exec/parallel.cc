#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "exec/operators.h"
#include "obs/metrics.h"

namespace uniqopt {

// ----------------------------------------------------- parallel executor
namespace {

/// How the per-worker streams merge at the gather point.
enum class MergeMode {
  kConcat,     ///< order-insensitive concatenation of worker outputs
  kAggregate,  ///< thread-local pre-aggregation, merged then finalized
  kDistinct,   ///< thread-local dedup, merged into a global seen-set
};

/// The driving base-table Get of a worker pipeline: the scan whose rows
/// are split into morsels. Follows the probe/streaming side of each
/// node; bails (nullptr) on mid-pipeline breakers (DISTINCT,
/// aggregation, set ops), whose partial per-worker inputs would not
/// compose.
const PlanNode* FindDriver(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kGet:
      return plan.get();
    case PlanKind::kSelect:
      return FindDriver(As<SelectNode>(plan)->input());
    case PlanKind::kProject: {
      const ProjectNode* p = As<ProjectNode>(plan);
      if (p->mode() != DuplicateMode::kAll) return nullptr;
      return FindDriver(p->input());
    }
    case PlanKind::kProduct:
      // The planner probes with the left side; the right side is
      // drained/built per worker (or shared, for hash joins).
      return FindDriver(As<ProductNode>(plan)->left());
    case PlanKind::kExists:
      return FindDriver(As<ExistsNode>(plan)->outer());
    case PlanKind::kSetOp:
    case PlanKind::kAggregate:
      return nullptr;
  }
  return nullptr;
}

/// Occurrences of `target` (by pointer) in the plan. Rewrites may share
/// subtrees, so the driving Get can legitimately appear on both sides
/// of a self-join; splitting one cursor across two scan positions would
/// be wrong, so such plans fall back to serial.
size_t CountNode(const PlanPtr& plan, const PlanNode* target) {
  size_t n = plan.get() == target ? 1 : 0;
  switch (plan->kind()) {
    case PlanKind::kGet:
      break;
    case PlanKind::kSelect:
      n += CountNode(As<SelectNode>(plan)->input(), target);
      break;
    case PlanKind::kProject:
      n += CountNode(As<ProjectNode>(plan)->input(), target);
      break;
    case PlanKind::kProduct: {
      const ProductNode* p = As<ProductNode>(plan);
      n += CountNode(p->left(), target) + CountNode(p->right(), target);
      break;
    }
    case PlanKind::kExists: {
      const ExistsNode* e = As<ExistsNode>(plan);
      n += CountNode(e->outer(), target) + CountNode(e->sub(), target);
      break;
    }
    case PlanKind::kSetOp: {
      const SetOpNode* s = As<SetOpNode>(plan);
      n += CountNode(s->left(), target) + CountNode(s->right(), target);
      break;
    }
    case PlanKind::kAggregate:
      n += CountNode(As<AggregateNode>(plan)->input(), target);
      break;
  }
  return n;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Result<std::optional<std::vector<Row>>> TryParallelExecute(
    const PlanPtr& plan, const Database& db, ExecContext* ctx,
    const PhysicalOptions& options, ExecProfile* profile) {
  unsigned dop = std::min(options.dop, 64u);
  if (dop <= 1) return std::optional<std::vector<Row>>();

  // Pick the gather strategy from the root and derive the per-worker
  // pipeline. A root DISTINCT or aggregation is the pipeline breaker:
  // workers run the pipeline below it with thread-local state, and the
  // breaker itself happens once at the merge.
  MergeMode mode = MergeMode::kConcat;
  PlanPtr worker_plan = plan;
  const AggregateNode* agg_root = nullptr;
  const ProjectNode* distinct_root = nullptr;
  if (plan->kind() == PlanKind::kAggregate) {
    agg_root = As<AggregateNode>(plan);
    mode = MergeMode::kAggregate;
    worker_plan = agg_root->input();
  } else if (plan->kind() == PlanKind::kProject &&
             As<ProjectNode>(plan)->mode() == DuplicateMode::kDist) {
    distinct_root = As<ProjectNode>(plan);
    mode = MergeMode::kDistinct;
    // Workers project without eliminating; the dedup happens against
    // thread-local seen-sets merged at the gather point.
    worker_plan = ProjectNode::Make(distinct_root->input(),
                                    DuplicateMode::kAll,
                                    distinct_root->columns());
  }

  const PlanNode* driver = FindDriver(worker_plan);
  if (driver == nullptr) return std::optional<std::vector<Row>>();
  if (CountNode(worker_plan, driver) != 1) {
    return std::optional<std::vector<Row>>();
  }
  auto table =
      db.GetTable(static_cast<const GetNode*>(driver)->table().name());
  if (!table.ok()) return std::optional<std::vector<Row>>();

  TableSnapshot driver_snapshot = (*table)->Snapshot();
  MorselCursor cursor(driver_snapshot->rows.size());
  ParallelLoweringHooks hooks;
  hooks.driver = driver;
  hooks.driver_snapshot = std::move(driver_snapshot);
  hooks.cursor = &cursor;

  // Lower all worker trees serially before any thread starts — the
  // shared-build map and profile need no locking, and plan-shape errors
  // surface before threads exist.
  std::vector<OperatorPtr> roots;
  roots.reserve(dop);
  for (unsigned w = 0; w < dop; ++w) {
    auto lowered = CreatePhysicalPlan(worker_plan, db, options,
                                     /*profile=*/nullptr, &hooks);
    if (!lowered.ok()) return lowered.status();
    roots.push_back(std::move(*lowered));
  }

  struct WorkerState {
    ExecContext ctx;
    Status status;
    std::vector<Row> rows;
    uint64_t produced = 0;
    uint64_t busy_ns = 0;
  };
  std::vector<WorkerState> workers(dop);
  std::vector<GroupedAggregator> aggs;
  std::vector<std::unordered_set<Row, RowHash, RowNullSafeEqual>> seen;
  if (mode == MergeMode::kAggregate) {
    aggs.reserve(dop);
    for (unsigned w = 0; w < dop; ++w) {
      aggs.emplace_back(agg_root->input()->schema(),
                        agg_root->group_columns(), agg_root->aggregates());
    }
  } else if (mode == MergeMode::kDistinct) {
    seen.resize(dop);
  }

  auto run_worker = [&](unsigned w) {
    WorkerState& ws = workers[w];
    ws.ctx.params = ctx->params;
    ws.ctx.batch_size = options.batch_size;
    uint64_t start = NowNs();
    Operator* root = roots[w].get();
    if (mode == MergeMode::kConcat) {
      auto r = ExecuteToVector(root, &ws.ctx);
      if (r.ok()) {
        ws.rows = std::move(*r);
        ws.produced = ws.rows.size();
      } else {
        ws.status = r.status();
      }
    } else {
      ws.status = [&]() -> Status {
        UNIQOPT_RETURN_NOT_OK(root->Open(&ws.ctx));
        auto consume = [&](const Row& row) {
          if (mode == MergeMode::kAggregate) {
            aggs[w].Accumulate(row, &ws.ctx.stats);
          } else {
            ++ws.ctx.stats.hash_probes;
            seen[w].insert(row);
          }
          ++ws.produced;
        };
        if (ws.ctx.batch_size > 0) {
          RowBatch batch(ws.ctx.batch_size);
          while (true) {
            UNIQOPT_ASSIGN_OR_RETURN(bool more,
                                     root->NextBatch(&ws.ctx, &batch));
            if (!more) break;
            for (size_t i = 0; i < batch.size(); ++i) consume(batch.row(i));
          }
        } else {
          Row row;
          while (true) {
            UNIQOPT_ASSIGN_OR_RETURN(bool more, root->Next(&ws.ctx, &row));
            if (!more) break;
            consume(row);
          }
        }
        root->Close();
        return Status::OK();
      }();
    }
    ws.busy_ns = NowNs() - start;
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(dop - 1);
    for (unsigned w = 1; w < dop; ++w) pool.emplace_back(run_worker, w);
    run_worker(0);
    for (std::thread& t : pool) t.join();
  }

  for (const WorkerState& ws : workers) {
    if (!ws.status.ok()) return ws.status;
  }

  // Merge thread-local stats into the caller's — totals stay exact
  // under parallelism (per-operator profiling and the class-window
  // exemplars read the same numbers serial execution would produce).
  uint64_t total_morsels = 0;
  for (WorkerState& ws : workers) {
    ctx->stats.Merge(ws.ctx.stats);
    total_morsels += ws.ctx.stats.morsels_claimed;
  }

  std::vector<Row> out;
  switch (mode) {
    case MergeMode::kConcat: {
      size_t total = 0;
      for (const WorkerState& ws : workers) total += ws.rows.size();
      out.reserve(total);
      for (WorkerState& ws : workers) {
        for (Row& r : ws.rows) out.push_back(std::move(r));
      }
      break;
    }
    case MergeMode::kAggregate: {
      for (unsigned w = 1; w < dop; ++w) aggs[0].MergeFrom(aggs[w]);
      out = aggs[0].Finalize();
      ctx->stats.rows_output += out.size();
      break;
    }
    case MergeMode::kDistinct: {
      auto& global = seen[0];
      for (unsigned w = 1; w < dop; ++w) {
        for (const Row& r : seen[w]) {
          ++ctx->stats.hash_probes;  // the merge is real dedup work
          global.insert(r);
        }
      }
      out.assign(global.begin(), global.end());
      ctx->stats.rows_output += out.size();
      break;
    }
  }

  // Feed the shared observability plane from the execution layer, so
  // every caller (optimizer, shell, benches) moves the same series the
  // \timeline plane and the regression sentinel watch.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("exec.morsels").Increment(total_morsels);
  obs::Histogram& busy = reg.GetHistogram("exec.worker.busy.ns");
  std::vector<WorkerProfile> worker_profiles;
  worker_profiles.reserve(dop);
  for (const WorkerState& ws : workers) {
    busy.Record(ws.busy_ns);
    worker_profiles.push_back(WorkerProfile{ws.ctx.stats.morsels_claimed,
                                            ws.produced, ws.busy_ns});
  }
  if (profile != nullptr) {
    profile->SetParallel(dop, options.batch_size,
                         std::move(worker_profiles));
  }
  return std::optional<std::vector<Row>>(std::move(out));
}

}  // namespace uniqopt
