#ifndef UNIQOPT_IMS_GATEWAY_H_
#define UNIQOPT_IMS_GATEWAY_H_

#include <vector>

#include "ims/dli.h"
#include "storage/table.h"

namespace uniqopt {
namespace ims {

/// Builds the Figure 2 hierarchy — SUPPLIER root with PARTS and AGENTS
/// children, root key SNO, child keys PNO / ANO — and loads it from the
/// relational supplier database (tables SUPPLIER, PARTS, AGENTS).
Result<std::unique_ptr<ImsDatabase>> BuildSupplierIms(
    const Database& relational);

/// Result of one gateway program: the rows output plus the DL/I work it
/// took to produce them.
struct GatewayResult {
  std::vector<Row> rows;  ///< the program's output rows
  DliCallStats stats;
};

}  // namespace ims
}  // namespace uniqopt

#endif  // UNIQOPT_IMS_GATEWAY_H_
