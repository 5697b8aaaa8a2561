#ifndef UNIQOPT_STORAGE_ROW_STORE_H_
#define UNIQOPT_STORAGE_ROW_STORE_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "types/row.h"

namespace uniqopt {

/// The rows of one table version, in fixed-size chunks that versions
/// share.
///
/// Row i sits in slot i % kChunkRows of chunk i / kChunkRows, and every
/// chunk but the last is full. Chunks are held by shared_ptr, so copying
/// a store copies only its chunk directory. A write clones a chunk the
/// first time it changes one that another store still holds, and changes
/// it in place after that; a chunk is never changed while a second store
/// holds it. That is what keeps a pinned snapshot's rows fixed while
/// later versions are written.
///
/// Mutators return how many rows they cloned out of shared chunks.
class RowStore {
 public:
  /// 128 rows: a scan borrows one chunk per batch, and changing a row
  /// clones at most the 128 rows of its chunk.
  static constexpr size_t kChunkShift = 7;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = const Row*;
    using reference = const Row&;

    const_iterator() = default;
    const_iterator(const RowStore* store, size_t i) : store_(store), i_(i) {}

    const Row& operator*() const { return (*store_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    const RowStore* store_ = nullptr;
    size_t i_ = 0;
  };

  size_t size() const { return size_; }
  size_t num_chunks() const { return chunks_.size(); }

  const Row& operator[](size_t i) const {
    return (*chunks_[i >> kChunkShift])[i & (kChunkRows - 1)];
  }

  /// Rows from `i` to the end of i's chunk: the longest contiguous run
  /// starting at row i, which scans borrow as one batch.
  std::span<const Row> RunFrom(size_t i) const {
    const std::vector<Row>& chunk = *chunks_[i >> kChunkShift];
    const size_t slot = i & (kChunkRows - 1);
    return std::span<const Row>(chunk.data() + slot, chunk.size() - slot);
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  size_t Append(Row row);
  /// Replaces row `i`.
  size_t Set(size_t i, Row row);
  /// Moves the last row into slot `i` and drops the last slot (`i` may
  /// be the last slot itself).
  size_t SwapRemove(size_t i);

 private:
  using Chunk = std::vector<Row>;

  /// Chunk `c` for writing, cloned first when another store holds it.
  Chunk& Mutable(size_t c, size_t* copied);

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace uniqopt

#endif  // UNIQOPT_STORAGE_ROW_STORE_H_
