#include "oodb/navigator.h"

#include <memory>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace uniqopt {
namespace oodb {

namespace {

/// Flight-recorder entry for one navigation strategy run: the OODB
/// sessions log through the same plane as the relational optimizer.
void RecordStrategy(const char* strategy, const StrategyResult& result,
                    uint64_t start_ns) {
  obs::QueryRecord rec;
  rec.rows_out = result.rows.size();
  rec.rows_scanned =
      static_cast<uint64_t>(result.stats.objects_retrieved);
  rec.total_ns = obs::SteadyNowNs() - start_ns;
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "oodb.nav";
  part->query = strategy;
  part->plan_hash = obs::FingerprintPlanText(strategy);
  part->proof_summary = result.stats.ToString();
  part->phase_ns.emplace_back("navigate", rec.total_ns);
  rec.prepared = std::move(part);
  obs::QueryRecorder::Global().Record(std::move(rec));
}

}  // namespace

Result<std::unique_ptr<ObjectStore>> BuildSupplierObjectStore(
    const Database& relational) {
  auto store = std::make_unique<ObjectStore>();
  ClassDef supplier;
  supplier.name = "Supplier";
  supplier.fields = {{"SNO", TypeId::kInteger},
                     {"SNAME", TypeId::kString},
                     {"SCITY", TypeId::kString},
                     {"BUDGET", TypeId::kDouble},
                     {"STATUS", TypeId::kString}};
  UNIQOPT_ASSIGN_OR_RETURN(size_t supplier_id,
                           store->AddClass(std::move(supplier)));

  ClassDef parts;
  parts.name = "Parts";
  // SNO is implied by the parent pointer (Figure 3): not stored.
  parts.fields = {{"PNO", TypeId::kInteger},
                  {"PNAME", TypeId::kString},
                  {"OEM_PNO", TypeId::kInteger},
                  {"COLOR", TypeId::kString}};
  parts.parent_class = "Supplier";
  UNIQOPT_ASSIGN_OR_RETURN(size_t parts_id, store->AddClass(std::move(parts)));

  ClassDef agent;
  agent.name = "Agent";
  agent.fields = {{"ANO", TypeId::kInteger},
                  {"ANAME", TypeId::kString},
                  {"ACITY", TypeId::kString}};
  agent.parent_class = "Supplier";
  UNIQOPT_ASSIGN_OR_RETURN(size_t agent_id, store->AddClass(std::move(agent)));

  // Load from the relational instance; remember supplier OIDs by SNO.
  std::map<int64_t, Oid> supplier_oids;
  UNIQOPT_ASSIGN_OR_RETURN(const Table* suppliers,
                           relational.GetTable("SUPPLIER"));
  for (const Row& row : suppliers->rows()) {
    UNIQOPT_ASSIGN_OR_RETURN(Oid oid, store->Insert(supplier_id, row));
    supplier_oids[row[0].AsInteger()] = oid;
  }
  UNIQOPT_ASSIGN_OR_RETURN(const Table* parts_table,
                           relational.GetTable("PARTS"));
  for (const Row& row : parts_table->rows()) {
    auto it = supplier_oids.find(row[0].AsInteger());
    if (it == supplier_oids.end()) {
      return Status::ConstraintViolation("PARTS row references missing "
                                         "supplier");
    }
    UNIQOPT_RETURN_NOT_OK(
        store
            ->Insert(parts_id, Row({row[1], row[2], row[3], row[4]}),
                     it->second)
            .status());
  }
  UNIQOPT_ASSIGN_OR_RETURN(const Table* agents, relational.GetTable("AGENTS"));
  for (const Row& row : agents->rows()) {
    auto it = supplier_oids.find(row[0].AsInteger());
    if (it == supplier_oids.end()) {
      return Status::ConstraintViolation("AGENTS row references missing "
                                         "supplier");
    }
    UNIQOPT_RETURN_NOT_OK(
        store->Insert(agent_id, Row({row[1], row[2], row[3]}), it->second)
            .status());
  }

  // The indexes Example 11 assumes.
  UNIQOPT_RETURN_NOT_OK(store->CreateIndex(supplier_id, "SNO"));
  UNIQOPT_RETURN_NOT_OK(store->CreateIndex(parts_id, "PNO"));
  return store;
}

StrategyResult ChildDrivenSuppliersForPart(const ObjectStore& store,
                                           int64_t part_no, int64_t sno_lo,
                                           int64_t sno_hi) {
  uint64_t start = obs::SteadyNowNs();
  StrategyResult result;
  NavigationSession nav(&store);
  size_t parts_id = *store.ClassId("Parts");
  // Line 36: retrieve PARTS (PNO = :PARTNO) via the PNO index.
  auto parts = nav.IndexEq(parts_id, 0, Value::Integer(part_no));
  if (!parts.ok()) return result;
  for (Oid part_oid : *parts) {
    const StoredObject& part = nav.Retrieve(part_oid);
    // Line 38: retrieve PARTS.SUPPLIER — chase the parent pointer.
    const StoredObject& supplier = nav.Deref(part.parent);
    // Lines 39–40: test the range predicate only after the fetch.
    int64_t sno = supplier.fields[0].AsInteger();
    if (sno >= sno_lo && sno <= sno_hi) {
      result.rows.push_back(supplier.fields);
    }
  }
  result.stats = nav.stats();
  RecordStrategy("child-driven suppliers-for-part", result, start);
  return result;
}

StrategyResult ParentDrivenSuppliersForPart(const ObjectStore& store,
                                            int64_t part_no, int64_t sno_lo,
                                            int64_t sno_hi) {
  uint64_t start = obs::SteadyNowNs();
  StrategyResult result;
  NavigationSession nav(&store);
  size_t supplier_id = *store.ClassId("Supplier");
  size_t parts_id = *store.ClassId("Parts");
  // Line 43: retrieve SUPPLIER (SNO between lo and hi) — index range scan.
  auto suppliers = nav.IndexRange(supplier_id, 0, Value::Integer(sno_lo),
                                  Value::Integer(sno_hi));
  if (!suppliers.ok()) return result;
  // Line 45: per supplier, look for a part with the given PNO whose
  // parent OID matches. The OID qualification needs only the candidate
  // part's header (PeekParent), not a full object fault, and EXISTS
  // semantics stop at the first witness.
  for (Oid supplier_oid : *suppliers) {
    auto parts = nav.IndexEq(parts_id, 0, Value::Integer(part_no));
    if (!parts.ok()) continue;
    bool found = false;
    for (Oid part_oid : *parts) {
      if (nav.PeekParent(part_oid) == supplier_oid) {
        found = true;
        break;
      }
    }
    if (found) {
      result.rows.push_back(nav.Retrieve(supplier_oid).fields);
    }
  }
  result.stats = nav.stats();
  RecordStrategy("parent-driven suppliers-for-part", result, start);
  return result;
}

}  // namespace oodb
}  // namespace uniqopt
