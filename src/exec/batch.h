#ifndef UNIQOPT_EXEC_BATCH_H_
#define UNIQOPT_EXEC_BATCH_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "types/row.h"

namespace uniqopt {

/// A batch of rows with a selection vector, the unit of the
/// batch-at-a-time execution path (`Operator::NextBatch`).
///
/// Rows live in one of two storage modes:
///  - *borrowed*: `Borrow()` points the batch at a contiguous span of
///    rows owned by someone else (a base table, a materialized output
///    vector). Zero copies — scans and pipeline breakers hand out views
///    into their storage, and filters narrow them by editing only the
///    selection vector.
///  - *owned*: `Append()` copies/moves rows into the batch's own
///    storage (projections, join outputs — anything that constructs new
///    rows).
/// `Reset()` returns the batch to empty; the two modes must not be
/// mixed within one fill.
///
/// A borrowed span is valid only until the producer's next fill — unless
/// the batch carries a *pin*: a reference that keeps the span's storage
/// alive and unchanged for as long as the pin is held. TableScanOp pins
/// its snapshot (an immutable table version), and filters pass the pin
/// on with the batch, so a consumer that keeps the pin may keep pointers
/// to the rows (a join build does). Pipeline breakers (SortDistinct,
/// HashAggregate, SortMergeIntersect) borrow from storage they free at
/// Close and hand out no pin.
///
/// The selection vector holds indexes into the underlying row span, in
/// output order. `row(i)` resolves the i-th *selected* row. Operators
/// that drop rows (filters) compact `selection()` in place and never
/// touch row storage.
///
/// `capacity` is a fill target, not a hard limit: producers stop
/// appending once `size() >= capacity()`, but a single production step
/// (e.g. one probe row matching many build rows) may overshoot.
class RowBatch {
 public:
  static constexpr size_t kDefaultBatchSize = 1024;

  /// Keeps borrowed rows alive and unchanged while held (see above).
  using Pin = std::shared_ptr<const void>;

  explicit RowBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? kDefaultBatchSize : capacity) {}

  size_t capacity() const { return capacity_; }
  /// Number of selected (visible) rows.
  size_t size() const { return selection_.size(); }
  bool empty() const { return selection_.empty(); }

  void Reset() {
    data_ = nullptr;
    data_size_ = 0;
    pin_.reset();
    owned_.clear();
    selection_.clear();
  }

  /// Points the batch at `n` externally-owned rows (which must outlive
  /// the batch fill, or as long as `pin` is held when one is given) and
  /// selects all of them.
  void Borrow(const Row* rows, size_t n, Pin pin = nullptr) {
    data_ = rows;
    data_size_ = n;
    pin_ = std::move(pin);
    owned_.clear();
    selection_.resize(n);
    for (size_t i = 0; i < n; ++i) selection_[i] = static_cast<uint32_t>(i);
  }

  /// The pin of a borrowed span; null for owned rows and unpinned spans.
  const Pin& pin() const { return pin_; }

  /// Appends a row into owned storage and selects it.
  void Append(Row row) {
    owned_.push_back(std::move(row));
    data_ = owned_.data();
    data_size_ = owned_.size();
    selection_.push_back(static_cast<uint32_t>(owned_.size() - 1));
  }

  /// The i-th selected row.
  const Row& row(size_t i) const { return data_[selection_[i]]; }

  /// The i-th selected row as a value of its own: moved out of owned
  /// storage (which then holds a moved-from row until Reset), copied
  /// from a borrowed span.
  Row TakeRow(size_t i) {
    if (owned_.empty()) return data_[selection_[i]];
    return std::move(owned_[selection_[i]]);
  }

  /// Underlying row span (selected or not); filters index it through
  /// the selection vector they are compacting.
  const Row* data() const { return data_; }
  size_t data_size() const { return data_size_; }

  /// Mutable selection vector, for in-place compaction by filters.
  std::vector<uint32_t>& selection() { return selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

 private:
  size_t capacity_;
  const Row* data_ = nullptr;  ///< borrowed span, or owned_.data()
  size_t data_size_ = 0;
  Pin pin_;
  std::vector<Row> owned_;
  std::vector<uint32_t> selection_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_BATCH_H_
