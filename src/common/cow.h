#ifndef UNIQOPT_COMMON_COW_H_
#define UNIQOPT_COMMON_COW_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace uniqopt {

/// Copy-on-write access to a vector that versions share through
/// shared_ptr: when another owner still holds `*slot`, replaces it with
/// a private clone (reserving `capacity` elements) and adds the number
/// of elements cloned to `*copied`; then returns the vector for writing.
///
/// use_count() is exact where it matters: a count of 1 means `*slot` is
/// the only owner, so no other thread can be copying it concurrently. A
/// stale count above 1 (another owner letting go) only costs a clone.
template <typename T>
std::vector<T>& Unshare(std::shared_ptr<std::vector<T>>* slot,
                        size_t capacity, size_t* copied) {
  std::shared_ptr<std::vector<T>>& shared = *slot;
  if (shared.use_count() > 1) {
    auto clone = std::make_shared<std::vector<T>>();
    clone->reserve(capacity);
    clone->assign(shared->begin(), shared->end());
    *copied += shared->size();
    shared = std::move(clone);
  }
  return *shared;
}

}  // namespace uniqopt

#endif  // UNIQOPT_COMMON_COW_H_
