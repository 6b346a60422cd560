// A sort for input that is usually close to its sorted order: the
// per-key event orders of a trace recorded in time order, and the
// zones of a key whose writes are mostly sequential.
#ifndef KAV_UTIL_ADAPTIVE_SORT_H
#define KAV_UTIL_ADAPTIVE_SORT_H

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace kav {

// Sorts [first, last) by `less`, which must be a strict total order,
// in O(n + I) time for I inversions and O(n log n) in the worst case.
//
// Insertion sort moves each element past exactly the elements it is
// inverted with, so it costs n + I. It runs while the element shifts
// so far stay within n; past that budget std::sort sorts the whole
// range. The switch comes after at most 2n shifts (the budget plus the
// one insertion that crossed it), so far-from-sorted input pays
// O(n log n) + O(n). Under a strict total order the sorted sequence is
// unique, so the result is exactly std::sort's on either path.
template <std::random_access_iterator It, typename Less>
void adaptive_sort(It first, It last, Less less) {
  const std::ptrdiff_t n = last - first;
  std::ptrdiff_t budget = n;
  for (std::ptrdiff_t i = 1; i < n; ++i) {
    if (!less(first[i], first[i - 1])) continue;
    auto item = std::move(first[i]);
    std::ptrdiff_t j = i;
    do {
      first[j] = std::move(first[j - 1]);
    } while (--j > 0 && less(item, first[j - 1]));
    first[j] = std::move(item);
    budget -= i - j;
    if (budget < 0) {
      std::sort(first, last, less);
      return;
    }
  }
}

}  // namespace kav

#endif  // KAV_UTIL_ADAPTIVE_SORT_H
