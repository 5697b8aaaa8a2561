#include "workloads.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>
#include <random>
#include <tuple>

#include "cache/fingerprint.h"
#include "exec/planner.h"
#include "span_log.h"
#include "workload/query_corpus.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

namespace reqbench {

using uniqopt::Row;
using uniqopt::Status;
using uniqopt::Value;

namespace {

/// Salt that gives warm-up its own stream, so the timed requests are not
/// a replay of the warm-up.
constexpr uint64_t kWarmupSalt = UINT64_C(0x7761726d2d757021);

/// The generator seed of one workload's stream (or data, by salt).
uint64_t SeedFor(const std::string& name, uint64_t seed, uint64_t salt) {
  return uniqopt::cache::Fnv1aMix(uniqopt::cache::Fnv1a(name), seed ^ salt);
}

constexpr uint64_t kStreamSalt = 0;
constexpr uint64_t kDataSalt = UINT64_C(0x64617461);

Row MakeRow(std::vector<Value> values) { return Row(std::move(values)); }

std::vector<Row> ReferenceRows(const uniqopt::PreparedQuery& query,
                               const uniqopt::Database& db) {
  // The un-rewritten plan executed by scans and hash builds only: shares
  // neither the rewrite nor the index paths with the answer under test.
  uniqopt::PhysicalOptions physical;
  physical.use_indexes = false;
  uniqopt::ExecContext ctx;
  auto rows = uniqopt::ExecutePlan(query.original_plan, db, &ctx, physical);
  return rows.ok() ? std::move(*rows) : std::vector<Row>{};
}

// ---------------------------------------------------------------- oltp_point

struct OltpSizes {
  size_t suppliers;
  size_t parts_per_supplier;
  size_t agents;
};

class OltpStream : public RequestStream {
 public:
  OltpStream(uint64_t seed, OltpSizes sizes) : rng_(seed), sizes_(sizes) {}

  Request Next() override {
    Request r;
    const uint64_t pick = rng_() % 100;
    if (pick < 30) {
      r.query_class = 0;
      r.key = Draw(sizes_.suppliers);
      r.sql = "SELECT SNAME, SCITY, BUDGET FROM SUPPLIER WHERE SNO = :S";
      r.params = {{"S", Value::Integer(r.key)}};
    } else if (pick < 60) {
      r.query_class = 1;
      r.key = Draw(sizes_.suppliers);
      r.key2 = Draw(sizes_.parts_per_supplier);
      r.sql =
          "SELECT PNAME, OEM_PNO, COLOR FROM PARTS WHERE SNO = :S AND PNO = :P";
      r.params = {{"S", Value::Integer(r.key)}, {"P", Value::Integer(r.key2)}};
    } else if (pick < 90) {
      // The generator numbers OEM_PNO 1, 2, ... in load order.
      r.query_class = 2;
      r.key = Draw(sizes_.suppliers * sizes_.parts_per_supplier) - 1;
      r.sql = "SELECT SNO, PNO, PNAME FROM PARTS WHERE OEM_PNO = :O";
      r.params = {{"O", Value::Integer(r.key + 1)}};
    } else {
      r.query_class = 3;
      r.key = Draw(sizes_.agents);
      r.sql =
          "SELECT A.ANAME, S.SNAME FROM AGENTS A, SUPPLIER S "
          "WHERE A.ANO = :A AND S.SNO = A.SNO";
      r.params = {{"A", Value::Integer(r.key)}};
    }
    return r;
  }

 private:
  int64_t Draw(size_t n) { return static_cast<int64_t>(1 + rng_() % n); }

  std::mt19937_64 rng_;
  OltpSizes sizes_;
};

/// Host-variable point lookups on a large database: after warm-up every
/// prepare is a plan-cache hit, so the time outside the executor shows.
class OltpPoint : public Workload {
 public:
  using Workload::Workload;

  Status PrepareOracle() override {
    auto pin = [&](const char* name, uniqopt::TableSnapshot* out) {
      auto table = db_->GetTable(name);
      if (!table.ok()) return table.status();
      *out = (*table)->Snapshot();
      return Status::OK();
    };
    UNIQOPT_RETURN_NOT_OK(pin("SUPPLIER", &suppliers_));
    UNIQOPT_RETURN_NOT_OK(pin("PARTS", &parts_));
    return pin("AGENTS", &agents_);
  }

  std::unique_ptr<RequestStream> NewStream(uint64_t seed) const override {
    return std::make_unique<OltpStream>(
        SeedFor(config_.name, seed, kStreamSalt), Sizes());
  }

  bool Check(const Request& r, const Outcome& o) override {
    if (!o.status.ok() || !VerifiedClean(o)) return false;
    const size_t ppp = Sizes().parts_per_supplier;
    std::vector<Row> expected;
    switch (r.query_class) {
      case 0: {
        const Row& s = suppliers_->rows[static_cast<size_t>(r.key - 1)];
        if (s[0].AsInteger() != r.key) return false;
        expected.push_back(MakeRow({s[1], s[2], s[3]}));
        break;
      }
      case 1: {
        const Row& p = parts_->rows[static_cast<size_t>(r.key - 1) * ppp +
                                    static_cast<size_t>(r.key2 - 1)];
        if (p[0].AsInteger() != r.key || p[1].AsInteger() != r.key2) {
          return false;
        }
        expected.push_back(MakeRow({p[2], p[3], p[4]}));
        break;
      }
      case 2: {
        // The one part whose OEM_PNO the generator nulled matches nothing.
        const Row& p = parts_->rows[static_cast<size_t>(r.key)];
        if (!p[3].is_null()) {
          if (p[3].AsInteger() != r.key + 1) return false;
          expected.push_back(MakeRow({p[0], p[1], p[2]}));
        }
        break;
      }
      default: {
        const Row& a = agents_->rows[static_cast<size_t>(r.key - 1)];
        if (a[1].AsInteger() != r.key) return false;
        const Row& s =
            suppliers_->rows[static_cast<size_t>(a[0].AsInteger() - 1)];
        expected.push_back(MakeRow({a[2], s[1]}));
        break;
      }
    }
    return ExpectRows(std::move(expected), o.rows);
  }

  std::vector<std::string> ClassNames() const override {
    return {"supplier_by_sno", "parts_by_key", "parts_by_oem",
            "agent_supplier_join"};
  }

 protected:
  Status Load() override {
    const OltpSizes s = Sizes();
    return LoadSupplierDb(s.suppliers, s.parts_per_supplier, s.agents);
  }
  size_t WarmupCount() const override { return 400; }

 private:
  OltpSizes Sizes() const {
    return config_.tiny ? OltpSizes{200, 4, 100} : OltpSizes{2000, 4, 1000};
  }

  uniqopt::TableSnapshot suppliers_;
  uniqopt::TableSnapshot parts_;
  uniqopt::TableSnapshot agents_;
};

// ------------------------------------------------------------ adhoc_distinct

/// Corpus queries that are not lowered to an unfiltered product.
std::vector<const uniqopt::CorpusQuery*> AdhocCorpus() {
  std::vector<const uniqopt::CorpusQuery*> out;
  for (const uniqopt::CorpusQuery& q : uniqopt::DistinctQueryCorpus()) {
    if (q.id.rfind("three-table", 0) == 0 || q.id == "no-join-pred") continue;
    out.push_back(&q);
  }
  return out;
}

class AdhocStream : public RequestStream {
 public:
  explicit AdhocStream(uint64_t seed)
      : rng_(seed), generator_(GeneratorOptions(seed)), corpus_(AdhocCorpus()) {}

  Request Next() override {
    Request r;
    if (rng_() % 10 < 3) {
      r.query_class = 1;
      r.sql = InlineHostVariables(corpus_[rng_() % corpus_.size()]->sql);
    } else {
      r.query_class = 0;
      r.sql = generator_.NextQuery();
    }
    r.reference_check = count_++ % 16 == 0;
    return r;
  }

 private:
  static uniqopt::RandomQueryOptions GeneratorOptions(uint64_t seed) {
    uniqopt::RandomQueryOptions options;
    options.seed = seed;
    options.join_probability = 1.0;
    options.group_by_probability = 0.15;
    return options;
  }

  /// Replaces every `:NAME` by a literal so each text is its own cache key.
  std::string InlineHostVariables(const std::string& sql) {
    std::string out;
    for (size_t i = 0; i < sql.size();) {
      if (sql[i] != ':') {
        out += sql[i++];
        continue;
      }
      size_t end = i + 1;
      while (end < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[end])) ||
              sql[end] == '_')) {
        ++end;
      }
      const std::string name = sql.substr(i + 1, end - i - 1);
      if (name == "SUPPLIER_NAME") {
        out += "'SUPPLIER-" + std::to_string(1 + rng_() % 30) + "'";
      } else {
        out += std::to_string(1 + rng_() % 20);
      }
      i = end;
    }
    return out;
  }

  std::mt19937_64 rng_;
  uniqopt::RandomQueryGenerator generator_;
  std::vector<const uniqopt::CorpusQuery*> corpus_;
  uint64_t count_ = 0;
};

/// Literal-inlined ad-hoc queries on a small database: two thirds of the
/// prepares miss the plan cache, so parse → bind → analyze → rewrite →
/// verify → equiv dominates.
class AdhocDistinct : public Workload {
 public:
  using Workload::Workload;

  Status PrepareOracle() override { return Status::OK(); }

  std::unique_ptr<RequestStream> NewStream(uint64_t seed) const override {
    return std::make_unique<AdhocStream>(
        SeedFor(config_.name, seed, kStreamSalt));
  }

  bool Check(const Request& r, const Outcome& o) override {
    if (!o.status.ok() || !VerifiedClean(o)) return false;
    if (!r.reference_check) return true;
    const bool set_mode = o.prepared->analysis.has_distinct;
    return ExpectDigest(Digest(ReferenceRows(*o.prepared, *db_), set_mode),
                        o.rows);
  }

  std::vector<std::string> ClassNames() const override {
    return {"random", "corpus"};
  }

 protected:
  Status Load() override { return LoadSupplierDb(100, 10, 50); }
  size_t WarmupCount() const override { return config_.tiny ? 100 : 1500; }
};

// ------------------------------------------------------------- analytic_join

struct AnalyticClass {
  const char* name;
  const char* sql;
  bool set_mode;
};

const std::array<AnalyticClass, 7> kAnalyticClasses = {{
    {"example1_distinct_removed",
     "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
     true},
    {"example2_distinct_kept",
     "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
     true},
    {"group_by_key",
     "SELECT S.SNO, P.PNO, MAX(P.OEM_PNO) FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO GROUP BY S.SNO, P.PNO",
     false},
    {"exists_to_join",
     "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
     "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)",
     false},
    {"distinct_unique_oem",
     "SELECT DISTINCT P.OEM_PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'",
     true},
    {"distinct_nonkey_sname",
     "SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
     true},
    {"intersect_to_exists",
     "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
     "INTERSECT "
     "SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR "
     "A.ACITY = 'Hull'",
     true},
}};

/// Every class once per cycle, in a freshly shuffled order each cycle:
/// the class mix of a run does not depend on the seed.
class AnalyticStream : public RequestStream {
 public:
  explicit AnalyticStream(uint64_t seed) : rng_(seed) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  }

  Request Next() override {
    if (pos_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    Request r;
    r.query_class = order_[pos_++];
    r.sql = kAnalyticClasses[static_cast<size_t>(r.query_class)].sql;
    return r;
  }

 private:
  std::mt19937_64 rng_;
  std::array<int, kAnalyticClasses.size()> order_{};
  size_t pos_ = kAnalyticClasses.size();
};

/// The paper's query classes on a mid-sized database, prepared once and
/// then served from the cache: the executor does nearly all the work.
class AnalyticJoin : public Workload {
 public:
  using Workload::Workload;

  Status PrepareOracle() override {
    for (size_t c = 0; c < kAnalyticClasses.size(); ++c) {
      auto prepared = optimizer_->PrepareShared(kAnalyticClasses[c].sql);
      if (!prepared.ok()) return prepared.status();
      references_[c] = Digest(ReferenceRows(**prepared, *db_),
                              kAnalyticClasses[c].set_mode);
    }
    return Status::OK();
  }

  std::unique_ptr<RequestStream> NewStream(uint64_t seed) const override {
    return std::make_unique<AnalyticStream>(
        SeedFor(config_.name, seed, kStreamSalt));
  }

  bool Check(const Request& r, const Outcome& o) override {
    if (!o.status.ok() || !VerifiedClean(o)) return false;
    return ExpectDigest(references_[static_cast<size_t>(r.query_class)],
                        o.rows);
  }

  std::vector<std::string> ClassNames() const override {
    std::vector<std::string> names;
    for (const AnalyticClass& c : kAnalyticClasses) names.push_back(c.name);
    return names;
  }

 protected:
  Status Load() override {
    return config_.tiny ? LoadSupplierDb(200, 5, 100)
                        : LoadSupplierDb(1000, 5, 500);
  }
  size_t WarmupCount() const override { return 2 * kAnalyticClasses.size(); }

 private:
  std::array<ResultDigest, kAnalyticClasses.size()> references_;
};

// ----------------------------------------------------------------- write_mix

class WriteMixStream : public RequestStream {
 public:
  WriteMixStream(uint64_t seed, size_t suppliers, size_t parts_per_supplier)
      : rng_(seed),
        suppliers_(suppliers),
        parts_per_supplier_(parts_per_supplier) {}

  Request Next() override {
    Request r;
    const uint64_t i = index_++;
    if (i % 20 == 19) {
      Write(i / 20, &r);
      return r;
    }
    // A read right after an UPDATE reads the key it wrote.
    r.key = next_read_ != 0 ? next_read_ : Draw();
    next_read_ = 0;
    r.sql = "SELECT SNAME, BUDGET FROM SUPPLIER WHERE SNO = :S";
    r.params = {{"S", Value::Integer(r.key)}};
    return r;
  }

 private:
  int64_t Draw() { return static_cast<int64_t>(1 + rng_() % suppliers_); }

  /// Writes go round-robin: INSERT of a new PARTS key, UPDATE of a
  /// supplier's BUDGET, DELETE of the row the last INSERT added, and an
  /// INSERT of an existing SUPPLIER key that must be rejected.
  void Write(uint64_t w, Request* r) {
    switch (w % 4) {
      case 0: {
        r->op = Op::kInsert;
        r->key = Draw();
        r->key2 = static_cast<int64_t>(parts_per_supplier_ + 1 + inserts_);
        const int64_t oem = static_cast<int64_t>(
            suppliers_ * parts_per_supplier_ + 1000 + inserts_);
        ++inserts_;
        pending_.emplace_back(r->key, r->key2);
        r->sql = "INSERT INTO PARTS VALUES (" + std::to_string(r->key) + ", " +
                 std::to_string(r->key2) + ", 'PART-NEW', " +
                 std::to_string(oem) + ", 'RED')";
        break;
      }
      case 1: {
        r->op = Op::kUpdate;
        r->key = Draw();
        r->key2 = static_cast<int64_t>(1000 + rng_() % 9000);
        next_read_ = r->key;
        r->sql = "UPDATE SUPPLIER SET BUDGET = " + std::to_string(r->key2) +
                 ".5 WHERE SNO = " + std::to_string(r->key);
        break;
      }
      case 2: {
        r->op = Op::kDelete;
        std::tie(r->key, r->key2) = pending_.front();
        pending_.pop_front();
        r->sql = "DELETE FROM PARTS WHERE SNO = " + std::to_string(r->key) +
                 " AND PNO = " + std::to_string(r->key2);
        break;
      }
      default: {
        r->op = Op::kDuplicate;
        r->key = Draw();
        r->sql = "INSERT INTO SUPPLIER VALUES (" + std::to_string(r->key) +
                 ", 'SUPPLIER-DUP', 'Toronto', 1.0, 'Active')";
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  size_t suppliers_;
  size_t parts_per_supplier_;
  uint64_t index_ = 0;
  uint64_t inserts_ = 0;
  int64_t next_read_ = 0;
  std::deque<std::pair<int64_t, int64_t>> pending_;
};

/// Key lookups with 5% writes: the only workload that reaches the DML
/// plane, index maintenance and plan-cache invalidation.
class WriteMix : public Workload {
 public:
  using Workload::Workload;

  Status PrepareOracle() override {
    auto supplier = db_->GetTable("SUPPLIER");
    if (!supplier.ok()) return supplier.status();
    auto parts = db_->GetTable("PARTS");
    if (!parts.ok()) return parts.status();
    supplier_table_ = *supplier;
    parts_table_ = *parts;
    expected_.clear();
    for (const Row& row : supplier_table_->Snapshot()->rows) {
      expected_.push_back(MakeRow({row[1], row[3]}));
    }
    suppliers_ = supplier_table_->size();
    parts_ = parts_table_->size();
    parts_key_ = 0;
    const auto& keys = parts_table_->def().keys();
    for (size_t k = 0; k < keys.size(); ++k) {
      if (keys[k].columns == std::vector<size_t>{0, 1}) parts_key_ = k;
    }
    return Status::OK();
  }

  std::unique_ptr<RequestStream> NewStream(uint64_t seed) const override {
    return std::make_unique<WriteMixStream>(
        SeedFor(config_.name, seed, kStreamSalt), Suppliers(), 2);
  }

  bool Check(const Request& r, const Outcome& o) override {
    const size_t key = static_cast<size_t>(r.key - 1);
    switch (r.op) {
      case Op::kRead:
        if (!o.status.ok() || !VerifiedClean(o)) return false;
        return ExpectRows({expected_[key]}, o.rows);
      case Op::kInsert:
        if (!o.status.ok() || o.rows_affected != 1) return false;
        ++parts_;
        return PartsHas(r.key, r.key2) && parts_table_->size() == parts_;
      case Op::kUpdate:
        if (!o.status.ok() || o.rows_affected != 1) return false;
        // Visible-to-the-next-read is checked by that read.
        expected_[key] = MakeRow(
            {expected_[key][0], Value::Double(static_cast<double>(r.key2) + 0.5)});
        return true;
      case Op::kDelete:
        if (!o.status.ok() || o.rows_affected != 1) return false;
        --parts_;
        return !PartsHas(r.key, r.key2) && parts_table_->size() == parts_;
      case Op::kDuplicate:
        return o.status.code() == uniqopt::StatusCode::kConstraintViolation &&
               supplier_table_->size() == suppliers_ &&
               parts_table_->size() == parts_;
    }
    return false;
  }

  bool CheckFinal() override {
    return supplier_table_->size() == suppliers_ &&
           parts_table_->size() == parts_;
  }

  std::vector<std::string> ClassNames() const override {
    return {"supplier_by_sno"};
  }

 protected:
  Status Load() override { return LoadSupplierDb(Suppliers(), 2, 1000); }
  size_t WarmupCount() const override { return 300; }

 private:
  size_t Suppliers() const { return config_.tiny ? 300 : 2000; }

  bool PartsHas(int64_t sno, int64_t pno) const {
    return parts_table_->ContainsKeyValue(
        parts_key_, MakeRow({Value::Integer(sno), Value::Integer(pno)}));
  }

  uniqopt::Table* supplier_table_ = nullptr;
  uniqopt::Table* parts_table_ = nullptr;
  size_t parts_key_ = 0;
  std::vector<Row> expected_;  // (SNAME, BUDGET) by SNO - 1
  size_t suppliers_ = 0;       // shadow row counts
  size_t parts_ = 0;
};

}  // namespace

Status Workload::Setup() {
  optimizer_.reset();
  dml_.reset();
  db_.reset();
  UNIQOPT_RETURN_NOT_OK(Load());
  optimizer_ = std::make_unique<uniqopt::Optimizer>(db_.get());
  dml_ = std::make_unique<uniqopt::txn::DmlExecutor>(db_.get());
  for (const Request& r : WarmupRequests()) {
    uint64_t prepare_ns = 0;
    uint64_t execute_ns = 0;
    bool hit = false;
    Outcome o = RunFacade(*this, r, &prepare_ns, &execute_ns, &hit);
    if (!o.status.ok()) return o.status;
  }
  return Status::OK();
}

std::vector<Request> Workload::WarmupRequests() const {
  std::unique_ptr<RequestStream> stream = NewStream(config_.seed ^ kWarmupSalt);
  std::vector<Request> out;
  for (size_t i = 0; i < WarmupCount(); ++i) {
    Request r = stream->Next();
    if (r.op == Op::kRead) out.push_back(std::move(r));
  }
  return out;
}

Status Workload::LoadSupplierDb(size_t suppliers, size_t parts_per_supplier,
                                size_t agents) {
  db_ = std::make_unique<uniqopt::Database>();
  uniqopt::SupplierSchemaOptions schema;
  schema.max_sno = static_cast<int64_t>(suppliers);
  UNIQOPT_RETURN_NOT_OK(uniqopt::CreateSupplierSchema(db_.get(), schema));
  uniqopt::SupplierDataOptions data;
  data.num_suppliers = suppliers;
  data.parts_per_supplier = parts_per_supplier;
  data.num_agents = agents;
  data.seed = SeedFor(config_.name, config_.seed, kDataSalt);
  return uniqopt::PopulateSupplierDatabase(db_.get(), data);
}

bool Workload::CorruptNext() {
  return config_.corrupt_oracle && comparisons_++ % 50 == 0;
}

bool Workload::ExpectRows(std::vector<Row> expected,
                          const std::vector<Row>& actual) {
  if (CorruptNext()) expected.push_back(MakeRow({Value::String("corrupt")}));
  if (expected.size() != actual.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!SameRow(expected[i], actual[i])) return false;
  }
  return true;
}

bool Workload::ExpectDigest(ResultDigest expected,
                            const std::vector<Row>& actual) {
  if (CorruptNext()) {
    ++expected.rows;
    ++expected.sum;
    expected.distinct.push_back(0);
  }
  return Digest(actual, expected.set_mode) == expected;
}

bool Workload::VerifiedClean(const Outcome& outcome) {
  return outcome.prepared != nullptr && outcome.prepared->verified &&
         outcome.prepared->verification.Clean();
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kRead:
      return "read";
    case Op::kInsert:
      return "insert";
    case Op::kUpdate:
      return "update";
    case Op::kDelete:
      return "delete";
    case Op::kDuplicate:
      return "duplicate_insert";
  }
  return "unknown";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "oltp_point", "adhoc_distinct", "analytic_join", "write_mix"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config) {
  if (config.name == "oltp_point") return std::make_unique<OltpPoint>(config);
  if (config.name == "adhoc_distinct") {
    return std::make_unique<AdhocDistinct>(config);
  }
  if (config.name == "analytic_join") {
    return std::make_unique<AnalyticJoin>(config);
  }
  if (config.name == "write_mix") return std::make_unique<WriteMix>(config);
  return nullptr;
}

Outcome RunFacade(Workload& workload, const Request& request,
                  uint64_t* prepare_ns, uint64_t* execute_ns,
                  bool* cache_hit) {
  Outcome out;
  *prepare_ns = 0;
  *cache_hit = false;
  const uint64_t start = NowNs();
  if (request.op != Op::kRead) {
    auto result = workload.dml().ExecuteSql(request.sql, request.params);
    *execute_ns = NowNs() - start;
    if (result.ok()) {
      out.rows_affected = result->rows_affected;
    } else {
      out.status = result.status();
    }
    return out;
  }
  auto prepared = workload.optimizer().PrepareShared(request.sql, cache_hit);
  const uint64_t prepared_at = NowNs();
  *prepare_ns = prepared_at - start;
  if (!prepared.ok()) {
    *execute_ns = 0;
    out.status = prepared.status();
    return out;
  }
  auto rows = workload.optimizer().Execute(**prepared, request.params);
  *execute_ns = NowNs() - prepared_at;
  out.prepared = std::move(*prepared);
  if (rows.ok()) {
    out.rows = std::move(*rows);
  } else {
    out.status = rows.status();
  }
  return out;
}

}  // namespace reqbench
