#include "text/similarity_kernels.h"

#include <utility>

namespace terids {

size_t IntersectLinear(const Token* a, size_t na, const Token* b, size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

namespace {

/// Index of the first element >= t in the sorted span b[from, nb), found by
/// exponential probing from `from` followed by a binary search of the
/// bracketed range. O(log distance) instead of O(distance).
size_t GallopLowerBound(const Token* b, size_t nb, size_t from, Token t) {
  size_t step = 1;
  size_t lo = from;
  size_t hi = from;
  while (hi < nb && b[hi] < t) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  const Token* first = b + lo;
  const Token* last = b + std::min(hi, nb);
  return static_cast<size_t>(std::lower_bound(first, last, t) - b);
}

}  // namespace

size_t IntersectGallop(const Token* a, size_t na, const Token* b, size_t nb) {
  // Gallop the smaller span into the larger one; the cursor into the large
  // span only moves forward, so the whole intersection is O(n log m).
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  size_t count = 0;
  size_t pos = 0;
  for (size_t i = 0; i < na && pos < nb; ++i) {
    pos = GallopLowerBound(b, nb, pos, a[i]);
    if (pos < nb && b[pos] == a[i]) {
      ++count;
      ++pos;
    }
  }
  return count;
}

}  // namespace terids
