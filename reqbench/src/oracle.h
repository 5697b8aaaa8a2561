#ifndef REQBENCH_ORACLE_H_
#define REQBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "types/row.h"

namespace reqbench {

/// Order-independent summary of a query result, compared against the
/// summary of a reference result. Bag mode keeps the row count and two
/// moments of the row hashes (multiplicities matter); set mode keeps the
/// sorted distinct row hashes (multiplicities do not). Row hashes ignore
/// floating-point noise below 1e-6, so an AVG summed in another order
/// still matches its reference.
struct ResultDigest {
  bool set_mode = false;
  size_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum_mixed = 0;
  std::vector<uint64_t> distinct;

  bool operator==(const ResultDigest& other) const;
};

ResultDigest Digest(const std::vector<uniqopt::Row>& rows, bool set_mode);

/// Column-wise equality under `=!`, doubles compared to within 1e-9
/// relative.
bool SameRow(const uniqopt::Row& a, const uniqopt::Row& b);

}  // namespace reqbench

#endif  // REQBENCH_ORACLE_H_
