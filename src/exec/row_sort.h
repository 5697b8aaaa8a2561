#ifndef UNIQOPT_EXEC_ROW_SORT_H_
#define UNIQOPT_EXEC_ROW_SORT_H_

#include <cstddef>
#include <vector>

#include "types/row.h"

namespace uniqopt {

/// Sorts `*rows` into Row::Compare order and, when `distinct`, keeps only
/// the first row of each run of Row::Compare-equal rows (one row per
/// `=!`-equal group), adding every ordering comparison to
/// `*comparisons`. The result, the row kept per group and the count are
/// exactly those of std::sort with a counting Row::Compare comparator
/// followed by std::unique: the sort runs the same std::sort over a
/// permutation, with a comparator that gives the same answers.
///
/// The comparator reads keys extracted once per row and column: a NULL
/// flag, then an order-preserving 64-bit word — the int64, boolean or
/// double itself, or a string's 8 bytes after the column's common
/// prefix (7 bytes and the length, when every string of the column fits
/// in them). Value::Compare breaks string prefix ties and orders any
/// column whose non-NULL values are not all one type (INTEGER mixed with
/// DOUBLE, say) or hold a NaN. Rows are moved once, after the sort.
/// Every row must have the same number of columns.
void SortRows(std::vector<Row>* rows, bool distinct, size_t* comparisons);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_ROW_SORT_H_
