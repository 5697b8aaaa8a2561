#include "ims/gateway.h"

namespace uniqopt {
namespace ims {

Result<std::unique_ptr<ImsDatabase>> BuildSupplierIms(
    const Database& relational) {
  ImsDatabaseDef def;
  {
    SegmentTypeDef supplier;
    supplier.name = "SUPPLIER";
    supplier.fields = {{"SNO", TypeId::kInteger},
                       {"SNAME", TypeId::kString},
                       {"SCITY", TypeId::kString},
                       {"BUDGET", TypeId::kDouble},
                       {"STATUS", TypeId::kString}};
    supplier.key_field = 0;
    UNIQOPT_RETURN_NOT_OK(def.AddSegmentType(std::move(supplier)));
  }
  {
    // SNO is a virtual column in the relational view (Figure 2): the
    // hierarchy encodes it, so the segment stores only the rest.
    SegmentTypeDef parts;
    parts.name = "PARTS";
    parts.fields = {{"PNO", TypeId::kInteger},
                    {"PNAME", TypeId::kString},
                    {"OEM_PNO", TypeId::kInteger},
                    {"COLOR", TypeId::kString}};
    parts.key_field = 0;
    parts.parent = "SUPPLIER";
    UNIQOPT_RETURN_NOT_OK(def.AddSegmentType(std::move(parts)));
  }
  {
    SegmentTypeDef agents;
    agents.name = "AGENTS";
    agents.fields = {{"ANO", TypeId::kInteger},
                     {"ANAME", TypeId::kString},
                     {"ACITY", TypeId::kString}};
    agents.key_field = 0;
    agents.parent = "SUPPLIER";
    UNIQOPT_RETURN_NOT_OK(def.AddSegmentType(std::move(agents)));
  }

  auto ims = std::make_unique<ImsDatabase>(std::move(def));
  UNIQOPT_ASSIGN_OR_RETURN(const Table* supplier,
                           relational.GetTable("SUPPLIER"));
  for (const Row& row : supplier->rows()) {
    UNIQOPT_RETURN_NOT_OK(ims->InsertRoot(row).status());
  }
  UNIQOPT_ASSIGN_OR_RETURN(const Table* parts, relational.GetTable("PARTS"));
  for (const Row& row : parts->rows()) {
    // PARTS(SNO, PNO, PNAME, OEM_PNO, COLOR): SNO locates the parent.
    Segment* parent = ims->FindRoot(row[0]);
    if (parent == nullptr) {
      return Status::ConstraintViolation("PARTS row references missing "
                                         "supplier " +
                                         row[0].ToString());
    }
    UNIQOPT_RETURN_NOT_OK(
        ims->InsertChild(parent, "PARTS",
                         Row({row[1], row[2], row[3], row[4]}))
            .status());
  }
  UNIQOPT_ASSIGN_OR_RETURN(const Table* agents, relational.GetTable("AGENTS"));
  for (const Row& row : agents->rows()) {
    // AGENTS(SNO, ANO, ANAME, ACITY).
    Segment* parent = ims->FindRoot(row[0]);
    if (parent == nullptr) {
      return Status::ConstraintViolation("AGENTS row references missing "
                                         "supplier " +
                                         row[0].ToString());
    }
    UNIQOPT_RETURN_NOT_OK(
        ims->InsertChild(parent, "AGENTS", Row({row[1], row[2], row[3]}))
            .status());
  }
  return ims;
}

}  // namespace ims
}  // namespace uniqopt
