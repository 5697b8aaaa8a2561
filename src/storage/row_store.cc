#include "storage/row_store.h"

#include <utility>

#include "common/cow.h"

namespace uniqopt {

namespace {
constexpr size_t kSlotMask = RowStore::kChunkRows - 1;
}  // namespace

RowStore::Chunk& RowStore::Mutable(size_t c, size_t* copied) {
  return Unshare(&chunks_[c], kChunkRows, copied);
}

size_t RowStore::Append(Row row) {
  size_t copied = 0;
  if ((size_ & kSlotMask) == 0) {
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(kChunkRows);
    chunks_.push_back(std::move(chunk));
  }
  Mutable(chunks_.size() - 1, &copied).push_back(std::move(row));
  ++size_;
  return copied;
}

size_t RowStore::Set(size_t i, Row row) {
  size_t copied = 0;
  Mutable(i >> kChunkShift, &copied)[i & kSlotMask] = std::move(row);
  return copied;
}

size_t RowStore::SwapRemove(size_t i) {
  size_t copied = 0;
  const size_t last = size_ - 1;
  Row moved;
  if ((last & kSlotMask) == 0) {
    // The last row is alone in its chunk: drop the chunk instead of
    // cloning it.
    if (i != last) moved = (*chunks_.back())[0];
    chunks_.pop_back();
  } else {
    Chunk& tail = Mutable(chunks_.size() - 1, &copied);
    moved = std::move(tail.back());
    tail.pop_back();
  }
  --size_;
  if (i != last) {
    Mutable(i >> kChunkShift, &copied)[i & kSlotMask] = std::move(moved);
  }
  return copied;
}

}  // namespace uniqopt
