#ifndef REQBENCH_WORKLOADS_H_
#define REQBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oracle.h"
#include "storage/table.h"
#include "txn/dml_executor.h"
#include "types/value.h"
#include "uniqopt/optimizer.h"

namespace reqbench {

enum class Op { kRead, kInsert, kUpdate, kDelete, kDuplicate };

/// "read", "insert", "update", "delete", "duplicate_insert".
const char* OpName(Op op);

/// One request as the client sends it: SQL text plus host-variable
/// values. `query_class`, `key` and `key2` are the generator's own notes
/// for the oracle and the per-class report; the program never sees them.
struct Request {
  Op op = Op::kRead;
  std::string sql;
  std::vector<std::pair<std::string, uniqopt::Value>> params;
  int query_class = 0;
  int64_t key = 0;
  int64_t key2 = 0;
  bool reference_check = false;
};

/// What one request returned, handed to the oracle after the timed call.
struct Outcome {
  uniqopt::Status status;
  std::shared_ptr<const uniqopt::PreparedQuery> prepared;
  std::vector<uniqopt::Row> rows;
  size_t rows_affected = 0;
};

/// A deterministic request stream: a pure function of the workload name
/// and the seed.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual Request Next() = 0;
};

struct WorkloadConfig {
  std::string name;
  uint64_t seed = 1;
  /// Tiny data for the benchmark's own smoke tests.
  bool tiny = false;
  /// Corrupt every 50th expected answer (the oracle's own test).
  bool corrupt_oracle = false;
};

/// One named workload: its data, its warm-up, its request stream and its
/// correctness oracle. Reads go through Optimizer::PrepareShared →
/// Optimizer::Execute, writes through txn::DmlExecutor::ExecuteSql.
class Workload {
 public:
  explicit Workload(WorkloadConfig config) : config_(std::move(config)) {}
  virtual ~Workload() = default;

  const WorkloadConfig& config() const { return config_; }

  /// Drops all state, then builds schema, data and indexes, a fresh
  /// Optimizer with the library defaults, and warms its plan cache by
  /// running WarmupRequests(). This is what setup_s times.
  uniqopt::Status Setup();

  /// Derives the oracle's expected answers from the freshly set-up state
  /// (not timed). Must follow every Setup().
  virtual uniqopt::Status PrepareOracle() = 0;

  virtual std::unique_ptr<RequestStream> NewStream(uint64_t seed) const = 0;

  /// The reads of a differently seeded stream, run at the end of Setup
  /// (writes are left out so warm-up never changes the data).
  std::vector<Request> WarmupRequests() const;

  /// Checks one answer outside the timed region. Returns false when the
  /// oracle rejects it; an expected rejection is a success.
  virtual bool Check(const Request& request, const Outcome& outcome) = 0;

  /// End-of-run invariants (row counts against the shadow counts).
  virtual bool CheckFinal() { return true; }

  /// Labels of Request::query_class, for the per-class report.
  virtual std::vector<std::string> ClassNames() const = 0;

  uniqopt::Database* db() const { return db_.get(); }
  const uniqopt::Optimizer& optimizer() const { return *optimizer_; }
  uniqopt::txn::DmlExecutor& dml() const { return *dml_; }

 protected:
  /// Creates the Figure 1 schema and fills it with the generator of
  /// src/workload (deterministic in the seed).
  virtual uniqopt::Status Load() = 0;
  virtual size_t WarmupCount() const = 0;

  uniqopt::Status LoadSupplierDb(size_t suppliers, size_t parts_per_supplier,
                                 size_t agents);

  /// Row-by-row comparison; under --corrupt-oracle every 50th expected
  /// answer gets a bogus extra row first.
  bool ExpectRows(std::vector<uniqopt::Row> expected,
                  const std::vector<uniqopt::Row>& actual);
  /// Order-independent comparison against a reference result; under
  /// --corrupt-oracle every 50th reference is altered first.
  bool ExpectDigest(ResultDigest expected,
                    const std::vector<uniqopt::Row>& actual);
  /// A prepared query is acceptable only with a clean verifier report.
  static bool VerifiedClean(const Outcome& outcome);
  bool CorruptNext();

  WorkloadConfig config_;
  std::unique_ptr<uniqopt::Database> db_;
  std::unique_ptr<uniqopt::Optimizer> optimizer_;
  std::unique_ptr<uniqopt::txn::DmlExecutor> dml_;
  uint64_t comparisons_ = 0;
};

const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config);

/// Runs one request through the public facade (the untraced path).
/// `prepare_ns` / `execute_ns` receive the two halves of a read's time;
/// a write's whole time lands in `execute_ns`.
Outcome RunFacade(Workload& workload, const Request& request,
                  uint64_t* prepare_ns, uint64_t* execute_ns,
                  bool* cache_hit);

}  // namespace reqbench

#endif  // REQBENCH_WORKLOADS_H_
